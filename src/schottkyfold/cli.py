"""Batch front end: JSON problem in, JSON report out, optional DOT trees.

A problem document looks like::

    {"p": 2, "ell": 5, "points": ["7", "12", "0", "5", "1", "inf"]}

with "p" and "ell" JSON integers (not booleans), points given as exact
decimal-integer or "num/den" strings in the ASCII digits 0-9 ("inf" for
the point at infinity; written twice, it is a repeated value like any
other), and an optional "options" object: "trace" and
"normalize_infinity" null, true or false, "dot" null or a non-empty
string, "verify_depth" null or an integer >= 0.  Any other value, or any
other key there, is invalid input.  On the command line, ``--trace`` and
``--normalize-infinity`` turn their option on, and ``--dot`` and
``--verify-depth`` replace it.  The report is a stable JSON object whose
rational entries are always exact normalised strings, never floats; its
text equals ``json.dumps(report, indent=2)`` but is written by
``render_report`` itself, because an ``indent`` sends ``json.dumps``
through its pure-Python encoder.  Exit codes: 0 the configuration is
good, 1 not good, 2 redundant, 3 invalid input (also a command-line usage
error, such as a missing ``--input`` or an unknown flag, with argparse's
usage message on stderr; ``--help`` exits 0), 4 internal error (an
unexpected exception; a one-line message goes to stderr), 5 output closed
(the reader of the report went away before it was written, as in
``| head``; nothing goes to stderr).
"""

from __future__ import annotations

import json
import os
import re
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING, NamedTuple, Optional

from . import folding, oracle
from .clusters import Configuration, PairedConfiguration
from .errors import SchottkyFoldError, UnsupportedFieldError
from .hull import reduced_convex_hull, to_dot
from .projline import INFINITY, Mobius, finite, point_str
from .valfield import Val, decimal_to_int, field_context, format_fraction

if TYPE_CHECKING:
    import argparse

EXIT_GOOD = 0
EXIT_NOT_GOOD = 1
EXIT_REDUNDANT = 2
EXIT_INVALID = 3
EXIT_INTERNAL = 4
EXIT_OUTPUT_CLOSED = 5


class ProblemError(SchottkyFoldError):
    """Raised for malformed or invalid problem documents."""


class ProblemSpec(NamedTuple):
    """A parsed problem document, a record like every other in the package:
    ``main`` merges the command-line flags into a copy (``_replace``)."""

    p: int
    ell: int
    points: tuple  # Fraction values and the string "inf"
    trace: bool = False
    dot: Optional[str] = None
    verify_depth: Optional[int] = None
    normalize_infinity: bool = False


# ASCII digits only: without re.ASCII, \d matches every Unicode decimal digit.
# Matched with fullmatch: "$" would also match before a final newline
_RATIONAL_RE = re.compile(r"-?\d+(/[1-9]\d*)?", re.ASCII)


def _parse_rational(text: str, k: int) -> Fraction:
    """Point k's exact value, from its literal."""
    if not _RATIONAL_RE.fullmatch(text):
        raise ProblemError(
            f"points[{k}]: expected a decimal integer or num/den string, got {text!r}"
        )
    num, _, den = text.partition("/")
    if not den:  # an integer needs no gcd
        return Fraction(decimal_to_int(num))
    return Fraction(decimal_to_int(num), decimal_to_int(den))


def _check_verify_depth(depth) -> None:
    """ProblemError unless ``depth``, the option or the flag, is None or an int >= 0."""
    if depth is not None and (isinstance(depth, bool) or not isinstance(depth, int) or depth < 0):
        raise ProblemError("option 'verify_depth' must be null or an integer >= 0")


def _check_dot(prefix) -> None:
    """ProblemError unless ``prefix``, the option or the flag, is None or a
    non-empty string: an empty prefix would name hidden files such as
    ``.stage00.dot`` in the working directory."""
    if prefix is not None and (not isinstance(prefix, str) or not prefix):
        raise ProblemError("option 'dot' must be null or a non-empty string")


def parse_problem(text: str) -> ProblemSpec:
    """Parse and validate a JSON problem document, and nothing else: the
    command-line flags are merged by ``main``."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ProblemError(f"line {exc.lineno}: {exc.msg}") from exc
    except ValueError as exc:  # an integer literal past the interpreter's digit limit
        raise ProblemError(str(exc).split(";")[0]) from exc
    except RecursionError as exc:  # arrays or objects nested past the decoder's limit
        raise ProblemError("the document nests too deeply") from exc
    if not isinstance(doc, dict):
        raise ProblemError("problem document must be a JSON object")
    for key in doc:
        if key not in ("p", "ell", "points", "options"):
            raise ProblemError(
                f"unknown field {key!r}; the fields are 'p', 'ell', 'points', 'options'"
            )
    for field in ("p", "ell", "points"):
        if field not in doc:
            raise ProblemError(f"field {field!r} is missing")
    p, ell = doc["p"], doc["ell"]
    if type(p) is not int or type(ell) is not int:  # a JSON bool is no int here
        raise ProblemError("fields 'p' and 'ell' must be integers")
    raw_points = doc["points"]
    if not isinstance(raw_points, list):
        raise ProblemError("field 'points' must be a list")
    points: list = []
    for k, item in enumerate(raw_points):
        if not isinstance(item, str):
            raise ProblemError(f"points[{k}]: expected a string literal")
        points.append(item if item == "inf" else _parse_rational(item, k))
    if len(points) < 4 or len(points) % 2 != 0:
        raise ProblemError("the number of points must be even and >= 4")
    try:
        field_context(p, ell)
    except UnsupportedFieldError as exc:
        raise ProblemError(str(exc)) from exc
    options = doc.get("options", {})
    if not isinstance(options, dict):
        raise ProblemError("field 'options' must be an object")
    for key in options:
        if key not in ("trace", "dot", "verify_depth", "normalize_infinity"):
            raise ProblemError(
                f"unknown option {key!r}; the options are "
                "'trace', 'dot', 'verify_depth', 'normalize_infinity'"
            )
    for flag in ("trace", "normalize_infinity"):
        if not isinstance(options.get(flag), (bool, type(None))):
            raise ProblemError(f"option {flag!r} must be null, true or false")
    _check_verify_depth(options.get("verify_depth"))
    _check_dot(options.get("dot"))
    return ProblemSpec(
        p=p,
        ell=ell,
        points=tuple(points),
        trace=bool(options.get("trace")),
        dot=options.get("dot"),
        verify_depth=options.get("verify_depth"),
        normalize_infinity=bool(options.get("normalize_infinity")),
    )


# --------------------------------------------------------------------------
# report assembly
# --------------------------------------------------------------------------


def _fmt_points(ctx, cfg: Configuration) -> list[str]:
    return [point_str(ctx, pt) for pt in cfg.points]


def _fmt_val(v: Val) -> str:
    return "inf" if v.is_infinite else format_fraction(v.fraction)


def _fmt_ring_val(ctx, a) -> str:
    """v(a) for an element a of ``ctx.integers``, such as a map's trace."""
    if a == ctx.integers.zero:
        return "inf"
    return _fmt_val(ctx.val_of_steps(ctx.integral_valuation(a)))


def _fmt_matrix(ctx, m: Mobius) -> list[str]:
    return [ctx.to_str(x) for x in m.entries()]


def _fmt_pairs(ctx, pcfg: PairedConfiguration) -> list[list[str]]:
    return [[point_str(ctx, a), point_str(ctx, b)] for a, b in pcfg.pairs]


def _fold_record(ctx, step: folding.FoldingStep) -> dict:
    return {
        "i": step.i,
        "j": step.j,
        "n": step.n,
        "indices": sorted(step.indices),
        "matrix": _fmt_matrix(ctx, step.map),
        "witness": {
            "l": step.witness.l,
            "lhs": _fmt_val(step.witness.lhs),
            "rhs": _fmt_val(step.witness.rhs),
        },
        "result": _fmt_points(ctx, step.after),
    }


def _audit_record(ctx, pcfg: PairedConfiguration, depth: int) -> dict:
    result = oracle.schottky_audit(pcfg, depth)
    record: dict = {"depth": depth, "words_checked": result.words_checked}
    if result.witness is None:
        record["witness"] = None
    else:
        word, cls = result.witness
        matrix = oracle.word_matrix(pcfg, word)
        record["witness"] = {
            "word": [[i, e] for i, e in word.syllables],
            "class": cls.kind.value,
            "matrix": _fmt_matrix(ctx, matrix),
            "trace_valuation": _fmt_ring_val(ctx, matrix.trace()),
            "det_valuation": _fmt_ring_val(ctx, matrix.det()),
        }
    record["relations"] = [
        [[i, e] for i, e in w.syllables] for w in result.relations
    ]
    return record


def run(spec: ProblemSpec) -> tuple[dict, int]:
    """Execute a problem and return (report, exit code)."""
    ctx = field_context(spec.p, spec.ell)
    # the one string a point can be is "inf"; a type test spares the
    # Fraction comparisons
    shown = [x if type(x) is str else format_fraction(x) for x in spec.points]
    report: dict = {"p": spec.p, "ell": spec.ell, "points": shown, "normalization": None}
    points = [INFINITY if type(x) is str else finite(ctx, x) for x in spec.points]
    if "inf" not in shown:
        if not spec.normalize_infinity:
            report["error"] = (
                "the point at infinity is required; pass normalize_infinity "
                "to change coordinates first"
            )
            return report, EXIT_INVALID
        # z -> 1/(z - c), the reported map, carries the first point c, and
        # any repeat of it (a zero difference), to infinity
        c = spec.points[0]
        points = [finite(ctx, 1 / d) if (d := x - c) else INFINITY for x in spec.points]
        report["normalization"] = {"matrix": ["0", "1", "1", format_fraction(-c)]}
    cfg = Configuration(ctx, tuple(points))
    verdict = folding.run_algorithm(ctx, cfg)

    report["fold_count"] = len(verdict.trace)
    if isinstance(verdict, folding.Good):
        pairs = _fmt_pairs(ctx, verdict.s_min)
        report["verdict"] = {
            "kind": "good",
            "s_min": [x for pair in pairs for x in pair],
            "s_min_pairs": pairs,
        }
        code = EXIT_GOOD
    elif isinstance(verdict, folding.NotGood):
        stage = "after_fold" if verdict.trace else "initial"
        report["verdict"] = {"kind": "not_good", "stage": stage, "failure": verdict.failure.value}
        if verdict.trace:
            report["verdict"]["failing_fold"] = len(verdict.trace) - 1
        code = EXIT_NOT_GOOD
    else:
        report["verdict"] = {
            "kind": "redundant",
            "reduced": _fmt_points(ctx, verdict.reduced),
        }
        code = EXIT_REDUNDANT

    if spec.trace:
        report["folds"] = [_fold_record(ctx, s) for s in verdict.trace]

    stages: list[PairedConfiguration] = [s.before for s in verdict.trace]
    if isinstance(verdict, folding.Good):
        stages.append(verdict.s_min)

    if spec.dot is not None:
        trees = {}
        for k, pcfg in enumerate(stages):
            trees[f"stage{k:02d}"] = to_dot(reduced_convex_hull(pcfg))
        report["trees"] = trees

    if spec.verify_depth is not None and stages:
        report["audit"] = _audit_record(ctx, stages[0], spec.verify_depth)

    return report, code


def render_report(report: dict) -> str:
    """The report as JSON text, equal to ``json.dumps(report, indent=2)``.

    It is written here rather than by that call because an ``indent``
    sends ``json.dumps`` through its pure-Python encoder; strings go through
    the C function that call uses, ``encode_basestring_ascii``, a list of
    strings in one pass (see ``_json_text``).  A report holds dicts with
    ``str`` keys, lists, ``str``, ``int``, ``bool`` and None; anything
    else, a float above all, raises ``TypeError``.
    """
    return _json_text(report, "\n")


def _json_text(value, newline: str) -> str:
    """``value`` in ``json.dumps``'s indent=2 layout; ``newline`` is a line
    break and the indent of ``value``'s own line, its items go two spaces
    deeper.  A ``str`` item is quoted in place, sparing a call.  A list
    whose first item is a ``str`` is quoted whole, ``map(_quote, value)``
    in one ``join``: most lists of a report (points, pairs, matrices,
    results) hold only ``str``.  On any other item ``_quote`` raises
    ``TypeError``, and the list is written item by item."""
    if isinstance(value, str):
        return _quote(value)
    if isinstance(value, int):
        return "true" if value is True else "false" if value is False else int.__repr__(value)
    if value is None:
        return "null"
    inner = newline + "  "
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = []
        for key, item in value.items():
            if not isinstance(key, str):
                raise TypeError(f"report keys must be str, not {type(key).__name__}")
            text = _quote(item) if type(item) is str else _json_text(item, inner)
            items.append(f"{_quote(key)}: {text}")
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(value, list):
        if not value:
            return "[]"
        if type(value[0]) is str:
            try:
                return "[" + inner + ("," + inner).join(map(_quote, value)) + newline + "]"
            except TypeError:  # _quote takes nothing but str
                pass
        items = [_quote(x) if type(x) is str else _json_text(x, inner) for x in value]
        return "[" + inner + ("," + inner).join(items) + newline + "]"
    raise TypeError(f"a report holds no {type(value).__name__}")


def write_dot_files(report: dict, prefix: str) -> list[str]:
    written = []
    for stage, text in report.get("trees", {}).items():
        path = f"{prefix}.{stage}.dot"
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        written.append(path)
    return written


def build_arg_parser() -> argparse.ArgumentParser:
    import argparse  # only a command line needs it; importing cli does not

    parser = argparse.ArgumentParser(
        prog="schottkyfold",
        description=(
            "Decide whether an even configuration of projective points over "
            "a discretely valued field is good, by folding."
        ),
    )
    source = parser.add_mutually_exclusive_group(required=True)
    source.add_argument("--input", metavar="PATH", help="problem JSON file")
    source.add_argument(
        "--stdin", action="store_true", help="read the problem JSON from stdin"
    )
    parser.add_argument(
        "--trace", action="store_true", help="include every fold in the report"
    )
    parser.add_argument(
        "--dot",
        metavar="PREFIX",
        help="write skeleton forests as PREFIX.<stage>.dot and embed them",
    )
    parser.add_argument(
        "--verify-depth",
        type=int,
        metavar="N",
        help="run the group-word audit up to word length N",
    )
    parser.add_argument(
        "--normalize-infinity",
        action="store_true",
        help="move the first point to infinity when infinity is absent",
    )
    parser.add_argument(
        "--quiet", action="store_true", help="suppress diagnostics on stderr"
    )
    return parser


def main(argv=None) -> int:
    try:
        args = build_arg_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse has printed the help (code 0) or a usage error (code 2,
        # which would read as "redundant")
        return EXIT_INVALID if exc.code else 0
    try:
        return _main(args)
    except BrokenPipeError:
        # the reader closed the pipe; the flush at exit then writes nowhere
        sys.stdout = open(os.devnull, "w", encoding="utf-8")
        return EXIT_OUTPUT_CLOSED
    except Exception as exc:  # a fault of the program, not of the input
        if not args.quiet:
            detail = " ".join(str(exc).split())
            print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


def _main(args: argparse.Namespace) -> int:
    try:
        if args.stdin:
            text = sys.stdin.read()
        else:
            with open(args.input, "r", encoding="utf-8") as fh:
                text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        return _refuse(args, exc)
    try:
        spec = parse_problem(text)
        _check_verify_depth(args.verify_depth)
        _check_dot(args.dot)
    except ProblemError as exc:
        return _refuse(args, exc)
    spec = spec._replace(
        trace=spec.trace or args.trace,
        dot=spec.dot if args.dot is None else args.dot,
        verify_depth=spec.verify_depth if args.verify_depth is None else args.verify_depth,
        normalize_infinity=spec.normalize_infinity or args.normalize_infinity,
    )

    report, code = run(spec)
    # flushed here, so a closed stdout raises in main and not at exit
    print(render_report(report), flush=True)
    if spec.dot is not None:
        try:
            written = write_dot_files(report, spec.dot)
        except OSError as exc:
            return _refuse(args, exc)
        if written and not args.quiet:
            print("wrote " + ", ".join(written), file=sys.stderr)
    if "error" in report:
        return _refuse(args, report["error"])
    return code


def _refuse(args: argparse.Namespace, message) -> int:
    """Invalid input: ``error: message`` on stderr unless ``--quiet``."""
    if not args.quiet:
        print(f"error: {message}", file=sys.stderr)
    return EXIT_INVALID
