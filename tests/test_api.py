"""The public API: the names ``__all__`` writes out, and nothing else."""

from __future__ import annotations

import ast
import importlib.util
import itertools
import json
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import schottkyfold as sf
from schottkyfold import cli

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "AuditResult", "BadFoldingProduced", "Cluster", "Configuration",
    "DegeneratePairError", "Disc", "ElementClass", "FieldContext",
    "FieldDivisionError", "FieldKind", "FoldWitness", "FoldingStep", "Good",
    "GroupWord", "INFINITY", "InitialNotPaired", "InvalidInputError", "MapKind",
    "Mobius", "NotClusteredInPairsError", "NotGood", "NotPairedError",
    "NotSeparatedError", "PPoint", "PairedConfiguration", "PairingError",
    "PairingFailure", "Redundant", "SchottkyFoldError", "SkeletonTree",
    "SkeletonVertex", "UnsupportedFieldError", "Val", "Verdict", "apply",
    "classify", "cluster_data", "compose", "configuration",
    "enumerate_gamma_words", "field_context", "finite", "format_fraction",
    "identity", "inverse", "mobius", "order_p_fixing", "pair_up", "proj_eq",
    "reduced_convex_hull", "repetition_report", "run_algorithm",
    "schottky_audit", "to_dot", "word_matrix",
]


def test_all_is_the_written_list_of_objects():
    assert sorted(sf.__all__) == PUBLIC
    for name in PUBLIC:
        assert not isinstance(getattr(sf, name), types.ModuleType), name
    namespace: dict = {}
    exec("from schottkyfold import *", namespace)
    assert set(namespace) - {"__builtins__"} == set(PUBLIC)


def test_demos_benchmark_and_readme_use_only_public_names():
    # ``from schottkyfold import ...`` in the demos, the benchmark and the
    # README quick start, and the benchmark's ``sf.<name>``
    names = set()
    for path in [*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "schottkyfold":
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.Attribute) and getattr(node.value, "id", "") == "sf":
                names.add(node.attr)
    readme = (ROOT / "README.md").read_text()
    for line in re.findall(r"^from schottkyfold import (.+)$", readme, re.M):
        names |= set(line.replace(" ", "").split(","))
    assert {"Good", "configuration", "repetition_report", "schottky_audit"} <= names
    # submodules such as ``cli`` are imported as modules, not as API names
    submodules = {n for n in names if importlib.util.find_spec(f"schottkyfold.{n}")}
    assert names - submodules <= set(PUBLIC)


# Run in a fresh isolated interpreter: the modules it loads before the
# import (``site`` and its like) do not count, only those the import adds.
_IMPORT_GATE = """
import contextlib, io, json, sys
sys.path.insert(0, sys.argv[1])
before = set(sys.modules)
import schottkyfold, schottkyfold.cli
loaded = set(sys.modules) - before
with contextlib.redirect_stdout(io.StringIO()) as out:
    code = schottkyfold.cli.main(["--help"])
print(json.dumps([sorted(loaded), code, out.getvalue().startswith("usage: schottkyfold"),
                  "argparse" in sys.modules]))
"""


def test_import_loads_no_dataclasses_inspect_or_argparse():
    # the records are NamedTuples and argparse is loaded only to parse a
    # command line, so importing the package and its CLI pulls in neither
    # dataclasses (with inspect behind it) nor argparse
    src = str(Path(sf.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-I", "-c", _IMPORT_GATE, src],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    loaded, code, usage, argparse_loaded = json.loads(proc.stdout.splitlines()[-1])
    assert "schottkyfold.cli" in loaded
    assert not {"dataclasses", "inspect", "argparse"} & set(loaded)
    assert (code, usage, argparse_loaded) == (0, True, True)


def _assert_immutable(record, field):
    with pytest.raises(AttributeError):
        setattr(record, field, getattr(record, field))


def test_records_compare_and_hash_by_value():
    ctx = sf.field_context(2, 5)
    one = sf.Val(Fraction(1))
    document = json.dumps({"p": 2, "ell": 5, "points": ["7", "12", "0", "5", "1", "inf"]})
    traced = json.dumps({**json.loads(document), "options": {"trace": True}})
    cases = [  # (a field, how to build the record in a context, one of its type that differs)
        ("value", lambda c: sf.PPoint(Fraction(7, 5)), sf.INFINITY),
        ("q", lambda c: sf.Val(Fraction(-3, 2)), sf.Val(None)),
        ("syllables", lambda c: sf.GroupWord(((0, 1), (1, 1))), sf.GroupWord(((1, 1), (0, 1)))),
        ("kind", lambda c: sf.ElementClass(sf.MapKind.LOXODROMIC, Fraction(2)),
         sf.ElementClass(sf.MapKind.LOXODROMIC)),
        ("points", lambda c: sf.configuration(c, [Fraction(7, 5), 12, "inf"]),
         sf.configuration(ctx, [12, Fraction(7, 5), "inf"])),
        ("lhs", lambda c: sf.FoldWitness(3, one, sf.Val(None)), sf.FoldWitness(3, one, one)),
        ("a", lambda c: sf.mobius(c, 2, 1, 0, 4), sf.identity(ctx)),
        ("a", lambda c: sf.identity(c), sf.identity(sf.field_context(2, 7))),
        ("points", lambda c: cli.parse_problem(document), cli.parse_problem(traced)),
    ]
    for field, build, other in cases:
        # each record built in its own, separately constructed context
        x, y = build(sf.field_context(2, 5)), build(sf.field_context(2, 5))
        assert x is not y and x == y and hash(x) == hash(y), field
        assert type(other) is type(x) and x != other, field
        # a NamedTuple: iterable, and equal to the plain tuple of its fields
        assert isinstance(x, tuple) and x == tuple(y), field
        _assert_immutable(x, field)
    # the command line merges its flags into a copy of a parsed problem
    spec = cli.parse_problem(document)
    merged = spec._replace(trace=True, dot="tree")
    assert merged == spec._replace(trace=True)._replace(dot="tree") != spec
    assert (merged.trace, merged.dot, spec.trace, spec.dot) == (True, "tree", False, None)
    assert merged[:3] == spec[:3] and merged.verify_depth is spec.verify_depth is None
    # a context compares by (p, ell) alone
    assert sf.field_context(2, 5) == ctx and hash(sf.field_context(2, 5)) == hash(ctx)
    contexts = [sf.field_context(2, 5), sf.field_context(2, 7), sf.field_context(3, 7)]
    for a, b in itertools.combinations(contexts, 2):
        assert a != b and a != (a.p, a.ell)
    paired = [sf.pair_up(sf.configuration(sf.field_context(2, 5), [7, 12, 0, 5, 1, "inf"]))
              for _ in range(2)]
    assert paired[0] == paired[1] and hash(paired[0]) == hash(paired[1])

    # the skeleton is a cache: not part of equality, hash or repr
    cfg = sf.configuration(ctx, [7, 12, 0, 5, 1, "inf"])
    built = sf.pair_up(cfg)
    fresh = sf.PairedConfiguration(ctx, built.pairs)
    assert fresh._skeleton is None and built._skeleton is not None
    assert fresh == built and hash(fresh) == hash(built) and repr(fresh) == repr(built)
    fresh.skeleton()
    assert fresh == built and hash(fresh) == hash(built) and repr(fresh) == repr(built)
    assert fresh != sf.PairedConfiguration(ctx, built.pairs[::-1])
    assert not isinstance(built, tuple) and built != (ctx, built.pairs)
    for field in ("ctx", "pairs", "_skeleton", "_checked"):
        _assert_immutable(built, field)
    with pytest.raises(AttributeError):
        del built.pairs

    # over Q(zeta_3) a map's entries are lists, so it has no hash
    m = sf.identity(sf.field_context(3, 7))
    assert m == sf.identity(m.ctx)
    with pytest.raises(TypeError):
        hash(m)
