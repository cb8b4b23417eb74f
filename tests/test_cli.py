"""Problem parsing, report assembly, exit codes, and the command line."""

from __future__ import annotations

import io
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

import schottkyfold as sf
from schottkyfold import cli
from helpers import (EIGHT_POINT_7ADIC_MIN, TEST_FIELDS, ctx7, module_env, random_paired_points,
                     values_multiset)
from reference import element, field_valuation, identity, order_p_fixing

PINNED_DIR = Path(__file__).parent / "expected" / "cli"


def problem_5adic(**options):
    doc = {"p": 2, "ell": 5, "points": ["7", "12", "0", "5", "1", "inf"]}
    if options:
        doc["options"] = options
    return json.dumps(doc)


def problem_7adic(**options):
    doc = {
        "p": 2,
        "ell": 7,
        "points": ["1336/3", "-355", "-110", "86", "0", "7", "1", "inf"],
    }
    if options:
        doc["options"] = options
    return json.dumps(doc)


def test_parse_problem_examples():
    spec = cli.parse_problem(problem_5adic())
    assert (spec.p, spec.ell) == (2, 5)
    assert [str(x) for x in spec.points[:2]] == ["7", "12"]
    spec7 = cli.parse_problem(problem_7adic())
    assert str(spec7.points[0]) == "1336/3"
    assert cli.parse_problem(problem_5adic(verify_depth=0)).verify_depth == 0


def test_parse_problem_rejects_bad_documents():
    with pytest.raises(cli.ProblemError, match="number of points must be even and >= 4"):
        cli.parse_problem(json.dumps({"p": 2, "ell": 5, "points": ["0", "5", "1"]}))
    with pytest.raises(cli.ProblemError, match="no supported valued field contains"):
        cli.parse_problem(
            json.dumps({"p": 3, "ell": 5, "points": ["0", "5", "1", "inf"]})
        )
    with pytest.raises(cli.ProblemError, match="^line 1: Expecting property name"):
        cli.parse_problem("{not json")
    with pytest.raises(cli.ProblemError, match="field 'points' is missing"):
        cli.parse_problem(json.dumps({"p": 2, "ell": 5}))
    with pytest.raises(cli.ProblemError, match=r"points\[3\]: expected a string literal"):
        cli.parse_problem(
            json.dumps({"p": 2, "ell": 5, "points": ["0", "5", "1", 7]})
        )
    with pytest.raises(cli.ProblemError, match=r"points\[3\]: expected a decimal integer"):
        cli.parse_problem(
            json.dumps({"p": 2, "ell": 5, "points": ["0", "5", "1", "0.5"]})
        )
    # points take the ASCII digits 0-9 only, not other Unicode decimal
    # digits such as the Arabic-Indic seven, and no whitespace: not even a
    # final newline, which a pattern ending in "$" lets by
    for point in ("\u0667", "1/\u0667", "7\n", "1/2\n", "7 ", " 7", "\t7"):
        with pytest.raises(cli.ProblemError, match=r"points\[0\]: expected a decimal integer"):
            cli.parse_problem(
                json.dumps({"p": 2, "ell": 5, "points": [point, "12", "0", "5", "1", "inf"]})
            )
    # a JSON boolean is no integer, though Python's bool is an int
    for field in ("p", "ell"):
        doc = {"p": 2, "ell": 5, "points": ["7", "12", "0", "5", "1", "inf"], field: True}
        with pytest.raises(cli.ProblemError, match="fields 'p' and 'ell' must be integers"):
            cli.parse_problem(json.dumps(doc))
    # a misspelled field would drop what it holds: "option" is not "options"
    doc = {"p": 2, "ell": 3, "points": ["0", "3", "1", "inf"],
           "option": {"trace": True, "verify_depth": 4}}
    with pytest.raises(cli.ProblemError, match=re.escape(
        "unknown field 'option'; the fields are 'p', 'ell', 'points', 'options'"
    )):
        cli.parse_problem(json.dumps(doc))


def test_main_refuses_a_misspelled_field_with_exit_3(tmp_path, capsys):
    doc = {"p": 2, "ell": 3, "points": ["0", "3", "1", "inf"],
           "option": {"trace": True, "verify_depth": 4}}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["--input", str(path)]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "error: unknown field 'option'; the fields are 'p', 'ell', 'points', 'options'\n"
    )


def test_run_not_good_exit_code_and_fold():
    report, code = cli.run(cli.parse_problem(problem_5adic(trace=True)))
    assert code == cli.EXIT_NOT_GOOD
    assert report["verdict"]["kind"] == "not_good"
    assert report["fold_count"] == 1
    fold = report["folds"][0]
    assert (fold["i"], fold["j"], fold["n"]) == (0, 2, 1)
    assert sorted(fold["result"]) == sorted(["-5", "-10", "0", "5", "1", "inf"])


def test_run_good_exit_code_and_s_min():
    report, code = cli.run(cli.parse_problem(problem_7adic()))
    assert code == cli.EXIT_GOOD
    assert report["verdict"]["kind"] == "good"
    assert report["fold_count"] == 2
    got = [x if x == "inf" else Fraction(x) for x in report["verdict"]["s_min"]]
    assert values_multiset(ctx7(), got) == values_multiset(
        ctx7(), EIGHT_POINT_7ADIC_MIN
    )


def test_run_redundant_exit_code():
    doc = json.dumps(
        {"p": 2, "ell": 5, "points": ["0", "0", "5", "5", "1", "inf"]}
    )
    report, code = cli.run(cli.parse_problem(doc))
    assert code == cli.EXIT_REDUNDANT
    assert sorted(report["verdict"]["reduced"]) == ["0", "1", "5", "inf"]


def test_run_a_shared_fixed_point_after_a_fold_exits_not_good():
    # one fold makes two distinct inherited pairs share a point, in the
    # given order and sorted: the same not_good report line in both
    points = [2, 258, 5, 69, -1, 127, 4, 132, 1, 257, 0, 128, 6, 134, 3]
    for order in (points, sorted(points)):
        doc = json.dumps({"p": 2, "ell": 2, "points": [str(x) for x in order] + ["inf"]})
        report, code = cli.run(cli.parse_problem(doc))
        assert code == cli.EXIT_NOT_GOOD == 1
        assert report["fold_count"] == 1
        assert report["verdict"] == {
            "kind": "not_good", "stage": "after_fold", "failure": "shared_fixed_point",
            "failing_fold": 0,
        }


def test_run_requires_infinity_unless_normalized():
    doc = json.dumps({"p": 2, "ell": 5, "points": ["2", "27", "3", "4"]})
    report, code = cli.run(cli.parse_problem(doc))
    assert code == cli.EXIT_INVALID

    doc2 = json.dumps(
        {
            "p": 2,
            "ell": 5,
            "points": ["2", "27", "3", "4"],
            "options": {"normalize_infinity": True},
        }
    )
    report, code = cli.run(cli.parse_problem(doc2))
    assert code in (cli.EXIT_GOOD, cli.EXIT_NOT_GOOD)
    assert report["normalization"] is not None


def test_normalize_infinity_counts_a_doubled_first_point_as_a_repeat(tmp_path, capsys):
    # z -> 1/(z - c) sends both copies of the first point c to infinity;
    # the doubled infinity is a repeated value like any other, not an
    # invalid input, whichever copy comes first.  So is "inf" written twice
    def run(points, ell=3):
        doc = {"p": 2, "ell": ell, "points": points, "options": {"normalize_infinity": True}}
        return cli.run(cli.parse_problem(json.dumps(doc)))

    not_paired = {"kind": "not_good", "stage": "initial", "failure": "not_clustered_in_pairs"}
    for points in (["0", "0", "1", "10", "2", "11"], ["1", "10", "0", "0", "2", "11"],
                   ["inf", "inf", "1", "10", "2", "11"], ["1", "10", "inf", "inf", "2", "11"]):
        report, code = run(points)
        assert code == cli.EXIT_NOT_GOOD
        assert report["verdict"] == not_paired
    report, code = run(["0", "0", "1", "1", "2", "11"])
    assert code == cli.EXIT_REDUNDANT
    assert report["verdict"]["reduced"] == ["inf", "1", "1/2", "1/11"]
    report, code = run(["0", "0", "inf", "inf"], ell=5)
    assert code == cli.EXIT_REDUNDANT
    assert report["verdict"]["reduced"] == ["0", "inf"]
    # through the command line too: exit 1, as run_algorithm counts it
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"p": 2, "ell": 5, "points": ["0", "1", "inf", "inf"]}))
    assert cli.main(["--input", str(path)]) == cli.EXIT_NOT_GOOD
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verdict"] == not_paired and captured.err == ""


def test_normalisation_in_the_cyclotomic_flavours():
    # the CLI moves the first point c to infinity on the parsed Fractions;
    # its report agrees with run_algorithm on the points that the Moebius
    # map z -> 1/(z - c) gives, in split and ramified Q(zeta_p), a repeated
    # first point included
    rng = random.Random(39)
    kinds = set()
    for p, ell in ((3, 7), (3, 3), (5, 11), (5, 5)):
        ctx = sf.field_context(p, ell)
        documents = []
        for g in (1, 2, 3):
            # a paired set moved off infinity by z -> 1/(z - d)
            points, _ = random_paired_points(rng, ctx, g)
            d = next(x for x in itertools.count(1) if x not in points)
            documents.append([Fraction(0) if x == "inf" else 1 / Fraction(x - d) for x in points])
        documents.append([Fraction(rng.randint(-ell**3, ell**3)) for _ in range(6)])
        # the first point once more, in place of the last or with the second
        documents += [documents[1][:1] + documents[1][:-1], documents[2] + documents[2][:2]]
        for values in documents:
            doc = {"p": p, "ell": ell, "points": [sf.format_fraction(x) for x in values],
                   "options": {"normalize_infinity": True}}
            report, _ = cli.run(cli.parse_problem(json.dumps(doc)))
            moved = sf.mobius(ctx, 0, 1, 1, -values[0])
            cfg = sf.Configuration(ctx, tuple(sf.apply(moved, sf.finite(ctx, x)) for x in values))
            verdict = sf.run_algorithm(ctx, cfg)
            kind = report["verdict"]["kind"]
            assert report["fold_count"] == len(verdict.trace), doc
            if isinstance(verdict, sf.Good):
                assert kind == "good", doc
                assert report["verdict"]["s_min"] == [
                    sf.projline.point_str(ctx, pt) for pt in verdict.s_min.configuration().points
                ], doc
            elif isinstance(verdict, sf.NotGood):
                assert (kind, report["verdict"]["failure"]) == ("not_good", verdict.failure.value), doc
            else:
                assert kind == "redundant", doc
            kinds.add(kind)
    assert kinds == {"good", "not_good", "redundant"}


def test_report_round_trips_and_is_deterministic():
    spec = cli.parse_problem(problem_7adic(trace=True, verify_depth=4))
    report1, _ = cli.run(spec)
    report2, _ = cli.run(cli.parse_problem(problem_7adic(trace=True, verify_depth=4)))
    text1, text2 = cli.render_report(report1), cli.render_report(report2)
    assert text1 == text2
    assert json.loads(text1) == report1  # lossless JSON round trip


def _random_string(rng: random.Random) -> str:
    alphabet = ['"', "\\", "/", "\n", "\t", "\x00", "\x1f", "\x7f", "a", " ",
                "\u00e9", "\u0667", "\u2028", "\ud800", "\U0001f600"]
    return "".join(rng.choice(alphabet) for _ in range(rng.randrange(6)))


def _random_json_value(rng: random.Random, depth: int):
    """A value of the types a report may hold, with the strings and ints
    that stress an encoder."""
    kind = rng.randrange(4 if depth else 2)
    if kind == 0:
        return _random_string(rng)
    if kind == 1:
        return rng.choice([True, False, None, 0, -1, 2**64 + 1, -(2**70), rng.randrange(-999, 999)])
    size = rng.randrange(4)
    if kind == 2:
        return [_random_json_value(rng, depth - 1) for _ in range(size)]
    return {_random_string(rng): _random_json_value(rng, depth - 1) for _ in range(size)}


def test_render_report_equals_json_dumps_with_indent_2():
    # every pinned report, with dot and verify_depth as the entry point
    # sets them (run writes no file), then nested values of every allowed type
    for doc in PINNED:
        spec = cli.parse_problem(doc.read_text())._replace(dot="tree")
        report, _ = cli.run(spec)
        assert cli.render_report(report) == json.dumps(report, indent=2)
    rng = random.Random(20261019)
    values = [{}, [], {"a": {}}, [[]], {"a": [{}, []]}]
    values += [_random_json_value(rng, 4) for _ in range(500)]
    for value in values:
        report = {"value": value}
        assert cli.render_report(report) == json.dumps(report, indent=2)
    for bad in ({"x": 0.5}, {"x": [1, 2.0]}, {"x": ["a", 2.0]}, {1: "a"}, {"x": {None: "a"}}):
        with pytest.raises(TypeError):
            cli.render_report(bad)


def test_audit_record_present_when_requested():
    report, _ = cli.run(cli.parse_problem(problem_5adic(verify_depth=4)))
    assert report["audit"]["witness"] is not None
    assert report["audit"]["witness"]["class"] == "elliptic"

    report7, _ = cli.run(cli.parse_problem(problem_7adic(verify_depth=6)))
    assert report7["audit"]["witness"] is None
    assert report7["audit"]["relations"] == []


def test_witness_valuations_read_the_ring_entries_like_the_field_route():
    # the audit record values a map's trace and det as elements of the
    # integer ring; the reference values them as field elements.  Generator
    # powers have trace 0 when p = 2, which prints as "inf"
    rng = random.Random(43)
    printed = set()
    for p, ell in TEST_FIELDS:
        ctx = sf.field_context(p, ell)
        gens = [identity(ctx)]
        for _ in range(3):
            a, b = (Fraction(rng.randint(-60, 60), rng.choice([1, 2, ell, ell**2])) for _ in range(2))
            if a != b:
                gens += [order_p_fixing(ctx, sf.finite(ctx, a), sf.finite(ctx, b), n) for n in range(1, p)]
        for m in gens + [sf.compose(g, h) for g, h in itertools.product(gens, gens)]:
            for x in (m.trace(), m.det()):
                text = cli._fmt_ring_val(ctx, x)
                assert text == cli._fmt_val(field_valuation(ctx, element(ctx, x)))
                printed.add(text)
    assert "inf" in printed and "0" in printed


def test_dot_trees_embedded_and_written(tmp_path):
    prefix = str(tmp_path / "run")
    spec = cli.parse_problem(problem_7adic())._replace(dot=prefix)
    report, _ = cli.run(spec)
    assert len(report["trees"]) == 3  # two fold stages plus the optimum
    written = cli.write_dot_files(report, prefix)
    assert len(written) == 3
    for path in written:
        with open(path, "r", encoding="utf-8") as fh:
            assert fh.read().startswith("graph skeleton {")


def test_main_with_files_and_stdin(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(problem_5adic(), encoding="utf-8")
    code = cli.main(["--input", str(path), "--quiet"])
    assert code == cli.EXIT_NOT_GOOD

    proc = subprocess.run(
        [sys.executable, "-m", "schottkyfold", "--stdin", "--trace"],
        input=problem_7adic(),
        capture_output=True,
        text=True,
        env=module_env(),
    )
    assert proc.returncode == cli.EXIT_GOOD
    payload = json.loads(proc.stdout)
    assert payload["verdict"]["kind"] == "good"
    assert len(payload["folds"]) == 2

    missing = cli.main(["--input", str(tmp_path / "nope.json"), "--quiet"])
    assert missing == cli.EXIT_INVALID


def test_main_reports_identically_across_runs(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(problem_7adic(trace=True), encoding="utf-8")
    outs = []
    for _ in range(2):
        proc = subprocess.run(
            [sys.executable, "-m", "schottkyfold", "--input", str(path)],
            capture_output=True,
            text=True,
            env=module_env(),
        )
        assert proc.returncode == cli.EXIT_GOOD
        outs.append(proc.stdout)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "options",
    [{"verify_depth": "x"}, {"verify_depth": -2}, {"verify_depth": True}, {"dot": 7},
     {"trace": "false"}, {"trace": 1}, {"normalize_infinity": "false"},
     {"normalize_infinity": 0}, {"normalize_infinity": []}, {"verify-depth": 3},
     {"traces": True}],
)
def test_parse_problem_rejects_bad_options(options):
    (key,) = options
    message = {
        "verify_depth": "option 'verify_depth' must be null or an integer >= 0",
        "dot": "option 'dot' must be null or a non-empty string",
        "trace": "option 'trace' must be null, true or false",
        "normalize_infinity": "option 'normalize_infinity' must be null, true or false",
    }.get(key, f"unknown option {key!r}")
    with pytest.raises(cli.ProblemError, match=re.escape(message)):
        cli.parse_problem(problem_5adic(**options))


def test_options_name_their_keys_and_take_null_for_a_flag(tmp_path, capsys):
    with pytest.raises(cli.ProblemError, match=(
        "unknown option 'verify-depth'; the options are "
        "'trace', 'dot', 'verify_depth', 'normalize_infinity'"
    )):
        cli.parse_problem(problem_5adic(**{"verify-depth": 3}))
    spec = cli.parse_problem(problem_5adic(trace=None, normalize_infinity=None))
    assert spec.trace is False and spec.normalize_infinity is False
    # the string "false" is not a flag, so nothing moves to infinity: exit 3
    doc = {"p": 2, "ell": 3, "points": ["0", "9", "1", "10", "2", "11"],
           "options": {"normalize_infinity": "false"}}
    path = tmp_path / "problem.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert cli.main(["--input", str(path)]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: option 'normalize_infinity' must be null, true or false\n"


def test_main_rejects_bad_verify_depth(tmp_path):
    path = tmp_path / "problem.json"
    path.write_text(problem_5adic(verify_depth="x"), encoding="utf-8")
    assert cli.main(["--input", str(path), "--quiet"]) == cli.EXIT_INVALID


def test_main_checks_the_verify_depth_flag_like_the_option(tmp_path, capsys):
    # the flag overrides the document's option, so it passes the same check
    path = tmp_path / "problem.json"
    path.write_text(problem_5adic(), encoding="utf-8")
    message = "error: option 'verify_depth' must be null or an integer >= 0\n"
    for depth in ("-1", "-7"):
        code = cli.main(["--input", str(path), f"--verify-depth={depth}"])
        captured = capsys.readouterr()
        assert code == cli.EXIT_INVALID
        assert (captured.out, captured.err) == ("", message)
    # the document's option is still checked when the flag replaces it
    for options in ({"verify_depth": -1}, {"verify_depth": "x"}):
        path.write_text(problem_5adic(**options), encoding="utf-8")
        assert cli.main(["--input", str(path), "--verify-depth=2"]) == cli.EXIT_INVALID
        assert capsys.readouterr().err == message
    # a valid flag still overrides the option
    path.write_text(problem_5adic(verify_depth=3), encoding="utf-8")
    assert cli.main(["--input", str(path), "--verify-depth", "0"]) == cli.EXIT_NOT_GOOD
    assert json.loads(capsys.readouterr().out)["audit"]["depth"] == 0


@pytest.mark.parametrize("flag", ["trace", "normalize_infinity", "dot", "verify_depth"])
def test_main_merges_each_flag_with_the_document_option(flag, tmp_path, capsys):
    # --trace and --normalize-infinity turn their option on whatever the
    # document says; --dot and --verify-depth replace the document's value.
    # Each flag runs off and on, with the option absent and then present
    doc = json.loads(problem_5adic())
    if flag == "normalize_infinity":
        doc["points"] = ["2", "27", "3", "4"]  # no infinity: exit 3 unless normalized
    present = {"trace": (False, True), "normalize_infinity": (False, True),
               "dot": ("doc",), "verify_depth": (3,)}[flag]
    on = {"trace": True, "normalize_infinity": True, "dot": "flag", "verify_depth": 0}[flag]
    name = "--" + flag.replace("_", "-")
    for k, (option, by_flag) in enumerate(itertools.product((None,) + present, (None, on))):
        case = tmp_path / str(k)
        case.mkdir()
        doc.pop("options", None)
        if option is not None:
            doc["options"] = {flag: str(case / option) if flag == "dot" else option}
        argv = []
        if by_flag is True:
            argv = [name]
        elif by_flag is not None:
            argv = [name, str(case / by_flag) if flag == "dot" else str(by_flag)]
        path = case / "problem.json"
        path.write_text(json.dumps(doc), encoding="utf-8")
        code = cli.main(["--input", str(path), "--quiet", *argv])
        report = json.loads(capsys.readouterr().out)
        if flag in ("trace", "normalize_infinity"):
            expected = bool(option) or bool(by_flag)
        else:
            expected = option if by_flag is None else by_flag
        if flag == "trace":
            assert ("folds" in report) is expected, (option, by_flag)
        elif flag == "normalize_infinity":
            moved = report["normalization"] == {"matrix": ["0", "1", "1", "-2"]}
            assert moved is expected and (code == cli.EXIT_INVALID) is not expected, (option, by_flag)
        elif flag == "dot":
            written = {p.name.split(".")[0] for p in case.glob("*.dot")}
            assert written == ({expected} if expected else set()), (option, by_flag)
            assert ("trees" in report) is bool(expected)
        else:
            assert report.get("audit", {}).get("depth") == expected, (option, by_flag)


def test_an_empty_dot_prefix_exits_invalid_before_running(tmp_path, monkeypatch, capsys):
    # an empty prefix would write hidden .stage00.dot files into the working
    # directory; the option and the flag pass one check, before the run, so
    # no report is printed and no file is written
    monkeypatch.chdir(tmp_path)
    with pytest.raises(cli.ProblemError, match="option 'dot' must be null or a non-empty string"):
        cli.parse_problem(problem_7adic(dot=""))
    message = "error: option 'dot' must be null or a non-empty string\n"
    path = tmp_path / "problem.json"
    for text, argv in ((problem_7adic(dot=""), []),
                       (problem_7adic(), ["--dot", ""]),
                       (problem_7adic(dot="tree"), ["--dot", ""])):
        path.write_text(text, encoding="utf-8")
        assert cli.main(["--input", str(path), *argv]) == cli.EXIT_INVALID
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == ("", message)
    assert [p.name for p in tmp_path.iterdir()] == ["problem.json"]


def test_main_unwritable_dot_prefix_exits_invalid(tmp_path, capsys):
    path = tmp_path / "problem.json"
    path.write_text(problem_7adic(), encoding="utf-8")
    prefix = str(tmp_path / "missing" / "x")
    assert cli.main(["--input", str(path), "--dot", prefix]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert json.loads(captured.out)["verdict"]["kind"] == "good"
    assert captured.err.startswith("error:")


def test_main_reports_an_internal_error_with_its_own_exit_code(
    tmp_path, monkeypatch, capsys
):
    path = tmp_path / "problem.json"
    path.write_text(problem_5adic(), encoding="utf-8")

    def broken_run(spec):
        raise RuntimeError("unexpected\nstate")

    monkeypatch.setattr(cli, "run", broken_run)
    assert cli.main(["--input", str(path)]) == cli.EXIT_INTERNAL
    err = capsys.readouterr().err
    assert err == "internal error: RuntimeError: unexpected state\n"


def test_main_exits_with_its_own_code_when_stdout_is_closed(tmp_path, monkeypatch, capsys):
    # a reader that went away (as in "| head") makes the write of the report
    # raise BrokenPipeError; a block-buffered stdout takes the text and
    # raises only on flush, so the report must be flushed inside main.  That
    # is no internal error, and stderr stays empty
    path = tmp_path / "problem.json"
    path.write_text(problem_5adic(), encoding="utf-8")

    class ClosedPipe:
        def write(self, text):
            return len(text)

        def flush(self):
            raise BrokenPipeError(32, "Broken pipe")

    monkeypatch.setattr(sys, "stdout", ClosedPipe())
    assert cli.main(["--input", str(path)]) == cli.EXIT_OUTPUT_CLOSED == 5
    # stdout now writes nowhere, so the flush at exit cannot fail again
    assert sys.stdout.name == os.devnull
    print("nothing", flush=True)
    sys.stdout.close()
    assert capsys.readouterr().err == ""


def test_entry_point_exits_5_on_a_pipe_closed_before_it_starts():
    # stdout is a pipe with no reader, block-buffered as it is by default;
    # the interpreter's own flush at exit must find nothing left to write
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = module_env()
    env.pop("PYTHONUNBUFFERED", None)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "schottkyfold", "--input",
             str(Path(__file__).parent / "expected" / "cli" / "p2_l5_redundant.json")],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=env,
            timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (cli.EXIT_OUTPUT_CLOSED, b"")


def test_command_line_usage_errors_exit_3(tmp_path, capsys):
    # argparse exits 2 on a usage error, which is the code for "redundant";
    # main returns 3 (invalid input) instead of raising, and the usage
    # message stays on stderr
    path = tmp_path / "problem.json"
    path.write_text(problem_5adic(), encoding="utf-8")
    for argv in ([], ["--input", str(path), "--verify-depth", "abc"], ["--bogus"]):
        assert cli.main(argv) == cli.EXIT_INVALID == 3
        assert capsys.readouterr().err.startswith("usage: schottkyfold")
    assert cli.main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: schottkyfold")


def test_entry_point_exits_3_on_a_usage_error():
    proc = subprocess.run(
        [sys.executable, "-m", "schottkyfold"],
        env=module_env(), capture_output=True, timeout=60,
    )
    assert proc.returncode == cli.EXIT_INVALID
    assert proc.stdout == b"" and proc.stderr.startswith(b"usage: schottkyfold")


def test_points_past_the_int_string_limit_round_trip():
    # 12 + 10**4400 lies in the disc of 12 that the other points see, so the
    # verdict is the showcase's; its 4401 digits exceed the interpreter's
    # default limit on int <-> str conversion
    big = "1" + "0" * 4398 + "12"
    doc = json.loads(problem_5adic(trace=True, verify_depth=4))
    doc["points"][1] = big
    proc = subprocess.run(
        [sys.executable, "-m", "schottkyfold", "--stdin"],
        input=json.dumps(doc),
        capture_output=True,
        text=True,
        env=module_env(),
    )
    assert "Traceback" not in proc.stderr
    assert proc.returncode == cli.EXIT_NOT_GOOD
    report = json.loads(proc.stdout)
    assert report["points"][1] == big
    assert report["verdict"]["stage"] == "after_fold"
    assert report["audit"]["witness"]["class"] == "elliptic"


def test_main_rejects_an_integer_literal_past_the_int_string_limit(tmp_path, capsys):
    # json.loads raises a plain ValueError for a literal of more than 4300
    # digits; it is a problem with the document, not an internal error
    path = tmp_path / "problem.json"
    path.write_text(problem_5adic().replace('"p": 2', '"p": ' + "1" * 5000), encoding="utf-8")
    assert cli.main(["--input", str(path)]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: Exceeds the limit")
    assert "\n" not in captured.err.rstrip("\n")


def test_main_rejects_a_file_that_is_not_utf8(tmp_path, capsys):
    # an undecodable document is a problem with the input: exit 3 and one
    # line on stderr, or none with --quiet
    path = tmp_path / "problem.json"
    path.write_bytes(b"\xff" + problem_5adic().encode("utf-8"))
    assert cli.main(["--input", str(path)]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: 'utf-8' codec can't decode")
    assert captured.err.count("\n") == 1
    assert cli.main(["--input", str(path), "--quiet"]) == cli.EXIT_INVALID
    assert capsys.readouterr() == ("", "")


def test_main_rejects_stdin_that_is_not_utf8_under_strict_decoding(monkeypatch, capsys):
    # as PYTHONIOENCODING=utf-8:strict sets up sys.stdin
    raw = b"\xff" + problem_5adic().encode("utf-8")
    monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(raw), encoding="utf-8", errors="strict"))
    assert cli.main(["--stdin"]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: 'utf-8' codec can't decode")
    assert captured.err.count("\n") == 1


def test_main_rejects_a_document_nested_past_the_decoders_limit(tmp_path, capsys):
    # json.loads raises RecursionError past its nesting limit; that is a
    # problem with the document, not an internal error
    with pytest.raises(cli.ProblemError, match="the document nests too deeply"):
        cli.parse_problem("[" * 100000 + "]" * 100000)
    path = tmp_path / "problem.json"
    path.write_text('{"p": 2, "ell": 5, "points": ' + "[" * 100000 + "]" * 100000 + "}", encoding="utf-8")
    assert cli.main(["--input", str(path)]) == cli.EXIT_INVALID
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: the document nests too deeply\n")


def test_audit_is_left_out_and_trees_empty_without_a_paired_stage(tmp_path):
    # with verify_depth set, a run with no paired stage (an initial
    # not_good, a redundant verdict before any fold) has no audit key, and
    # with dot its trees are {}; a redundant verdict after a fold audits
    # the first stage
    docs = (
        ({"p": 2, "ell": 5, "points": ["-5", "-10", "0", "5", "1", "inf"]}, "not_good", False),
        (json.loads((PINNED_DIR / "p2_l5_redundant.json").read_text()), "redundant", False),
        (json.loads((PINNED_DIR / "p2_l3_redundant_after_fold.json").read_text()), "redundant", True),
    )
    for doc, kind, staged in docs:
        doc["options"] = {"verify_depth": 3, "dot": str(tmp_path / "tree")}
        report, _ = cli.run(cli.parse_problem(json.dumps(doc)))
        assert report["verdict"]["kind"] == kind
        assert ("audit" in report) is staged
        assert len(report["trees"]) == report["fold_count"]
        assert (report["trees"] == {}) is (not staged)


@pytest.mark.parametrize("ell", [10**15 + 37, 10**18 + 3])
def test_main_accepts_a_field_with_a_large_prime(tmp_path, capsys, ell):
    # primality by Miller-Rabin: trial division took seconds at 10^15 + 37
    path = tmp_path / "problem.json"
    path.write_text(json.dumps({"p": 2, "ell": ell, "points": ["0", "1", "2", "inf"]}))
    start = time.perf_counter()
    assert cli.main(["--input", str(path)]) == cli.EXIT_NOT_GOOD
    assert time.perf_counter() - start < 2
    assert json.loads(capsys.readouterr().out)["ell"] == ell


PINNED = sorted(PINNED_DIR.glob("*.json"))


@pytest.mark.parametrize("doc", PINNED, ids=lambda path: path.stem)
def test_pinned_report(doc, tmp_path, capsys):
    # each document's report and exit code, pinned in tests/expected/cli/
    code = cli.main(["--input", str(doc), "--dot", str(tmp_path / "tree"), "--quiet"])
    assert capsys.readouterr().out == doc.with_suffix(".stdout").read_text()
    assert code == int(doc.with_suffix(".exit").read_text())


@pytest.mark.parametrize(
    "name", ["p2_l7_showcase_good", "p5_l11_audit_witness", "p2_l3_redundant_after_fold"]
)
def test_pinned_report_through_the_entry_point(name, tmp_path):
    # one document per exit code 0, 1 and 2 through python -m schottkyfold:
    # the bytes it writes to stdout, not the text main prints, are pinned
    doc = Path(__file__).parent / "expected" / "cli" / f"{name}.json"
    proc = subprocess.run(
        [sys.executable, "-m", "schottkyfold", "--input", str(doc), "--dot", str(tmp_path / "tree")],
        capture_output=True, env=module_env(), timeout=60,
    )
    assert proc.stdout == doc.with_suffix(".stdout").read_bytes()
    assert proc.returncode == int(doc.with_suffix(".exit").read_text())


def test_pinned_reports_cover_every_field_and_verdict():
    reports = [json.loads(doc.with_suffix(".stdout").read_text()) for doc in PINNED]
    fields = {(r["p"], r["ell"]) for r in reports}
    assert fields == {(2, 2), (2, 3), (2, 5), (2, 7), (3, 7), (3, 3), (5, 11), (5, 5)}
    verdicts = {(r["verdict"]["kind"], r["verdict"].get("stage")) for r in reports}
    assert verdicts == {
        ("good", None), ("not_good", "initial"), ("not_good", "after_fold"), ("redundant", None),
    }
    assert {"normalization", "folds", "trees", "audit"} <= {k for r in reports for k in r}
    # word_matrix's output is pinned through an audit witness's matrix, over
    # Q and over Q(zeta_p)
    witnessed = {r["p"] == 2 for r in reports if (r.get("audit") or {}).get("witness")}
    assert witnessed == {True, False}


def test_main_refuses_an_ell_past_the_primality_bound_at_once(tmp_path):
    # an ell of 10^25 + 13 is past the bound below which primality is
    # decided exactly: the document is refused with exit 3, not tested
    path = tmp_path / "problem.json"
    path.write_text(
        '{"p": 2, "ell": 10000000000000000000000013, "points": ["0","1","2","inf"]}',
        encoding="utf-8",
    )
    proc = subprocess.run(
        [sys.executable, "-m", "schottkyfold", "--input", str(path)],
        capture_output=True,
        text=True,
        env=module_env(),
        timeout=60,
    )
    assert proc.returncode == cli.EXIT_INVALID
    assert proc.stdout == ""
    assert "3317044064679887385961981" in proc.stderr
