"""The public API: the names ``__all__`` writes out, and nothing else."""

from __future__ import annotations

import ast
import importlib.util
import itertools
import json
import pickle
import re
import subprocess
import sys
import types
from fractions import Fraction
from pathlib import Path

import pytest

import schottkyfold as sf
from schottkyfold import cli
from schottkyfold.valfield import INF_STEPS
from reference import identity

ROOT = Path(__file__).resolve().parents[1]

PUBLIC = [
    "AuditResult", "Cluster", "Configuration",
    "Disc", "ElementClass", "FieldContext",
    "FieldKind", "FoldWitness", "FoldingStep", "Good",
    "GroupWord", "INFINITY", "InvalidInputError", "MapKind",
    "Mobius", "NotGood", "PPoint", "PairedConfiguration", "PairingError",
    "PairingFailure", "Redundant", "RepeatedPointsError", "SchottkyFoldError", "SkeletonTree",
    "SkeletonVertex", "UnsupportedFieldError", "Val", "Verdict", "apply",
    "classify", "cluster_data", "compose", "configuration",
    "enumerate_gamma_words", "field_context", "finite", "format_fraction",
    "mobius", "pair_up", "proj_eq",
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


def test_every_library_error_is_public():
    # the errors errors.py defines are exactly the exception classes in
    # __all__, so a caller can catch each one from the package
    defined = {
        name for name, value in vars(sf.errors).items()
        if isinstance(value, type) and issubclass(value, sf.SchottkyFoldError)
        and value.__module__ == sf.errors.__name__
    }
    public = {
        name for name in sf.__all__
        if isinstance(getattr(sf, name), type) and issubclass(getattr(sf, name), BaseException)
    }
    assert defined == public == {
        "SchottkyFoldError", "UnsupportedFieldError", "InvalidInputError",
        "PairingError", "RepeatedPointsError",
    }


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


def _references_outside_tests():
    """The names read by the library, the demos and the benchmark, and the
    subset read as methods of a field context.

    A read is a loaded ``name`` or ``x.name``: a definition, an import or a
    docstring is not one.  Every read in a demo or the benchmark counts.  In
    the library a read counts at module or class level, and inside a
    function only once that function is itself read (dunder methods always
    are), so a name that only dead code reads stays unread.  ``x.name``
    reads a method of ``FieldContext`` when x is ``FieldContext``, ``self``
    in its class body, or a variable whose last part starts with ``ctx``,
    the library's name for a context: ``ring.add`` on the integer ring is
    no read of ``FieldContext.add``.
    """
    reads = []  # (owning function or None, name, read as a context method)
    defs = {}  # function -> (its name, whether it is a FieldContext method)

    def visit(node, owner, in_context, library):
        for child in ast.iter_child_nodes(node):
            inner, inside = owner, in_context
            if isinstance(child, ast.ClassDef):
                inside = child.name == "FieldContext"
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) and library:
                inner = child
                defs[child] = (child.name, in_context and isinstance(node, ast.ClassDef))
            if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Load):
                reads.append((owner, child.id, False))
            elif isinstance(child, ast.Attribute) and isinstance(child.ctx, ast.Load):
                receiver = ast.unparse(child.value)
                as_method = (
                    receiver == "FieldContext"
                    or receiver.rsplit(".", 1)[-1].startswith("ctx")
                    or (in_context and receiver == "self")
                )
                reads.append((owner, child.attr, as_method))
            visit(child, inner, inside, library)

    for path in ROOT.glob("src/schottkyfold/*.py"):
        visit(ast.parse(path.read_text()), None, False, True)
    for path in [*ROOT.glob("demos/*.py"), *ROOT.glob("perfbench/*.py")]:
        visit(ast.parse(path.read_text()), None, False, False)
    live = {fn for fn, (name, _) in defs.items() if name.startswith("__")}
    while True:
        names, methods = set(), set()
        for owner, name, as_method in reads:
            if owner is None or owner in live:
                names.add(name)
                if as_method:
                    methods.add(name)
        grown = live | {fn for fn, (name, method) in defs.items() if name in (methods if method else names)}
        if grown == live:
            return names, methods
        live = grown


def test_every_public_name_has_a_caller_outside_the_tests():
    # each name in __all__ and each public FieldContext method is read in
    # the library beyond its own definition, in a demo, or in the benchmark;
    # what only the tests call belongs in tests/reference.py
    names, methods = _references_outside_tests()
    public = {name for name, value in vars(sf.FieldContext).items() if callable(value) and not name.startswith("_")}
    assert {"lower", "mul", "valuation"} <= public
    unread = sorted(set(sf.__all__) - names) + [f"FieldContext.{m}" for m in sorted(public - methods)]
    assert unread == []


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


def test_the_runtime_imports_only_the_standard_library():
    # every absolute import of the package names a module of the standard
    # library; a relative import stays inside the package
    names = set()
    for path in sorted((ROOT / "src" / "schottkyfold").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names.update(alias.name.partition(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names.add(node.module.partition(".")[0])
    assert {"fractions", "json"} <= names
    assert names <= sys.stdlib_module_names, sorted(names - sys.stdlib_module_names)


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
        ("a", lambda c: sf.mobius(c, 2, 1, 0, 4), identity(ctx)),
        ("a", lambda c: identity(c), identity(sf.field_context(2, 7))),
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

    # a paired configuration is the NamedTuple (ctx, pairs, skeleton): two
    # compare equal when all three fields do, and one made by hand holds no
    # skeleton; only pair_up hands one over
    cfg = sf.configuration(ctx, [7, 12, 0, 5, 1, "inf"])
    built = sf.pair_up(cfg)
    bare = sf.PairedConfiguration(ctx, built.pairs)
    assert bare.skeleton is None and built.skeleton is not None
    assert bare == built._replace(skeleton=None) and bare != built
    assert repr(bare) == repr(built) and built == (ctx, built.pairs, built.skeleton)
    assert bare != sf.PairedConfiguration(ctx, built.pairs[::-1])
    for field in ("ctx", "pairs", "skeleton"):
        _assert_immutable(built, field)
    with pytest.raises(AttributeError):
        del built.pairs
    # over Q(zeta_3) the skeleton's numerators are lists, so it has no hash
    zeta = sf.pair_up(sf.configuration(sf.field_context(3, 7), [0, 7, 1, 8, 2, "inf"]))
    assert zeta == sf.pair_up(zeta.configuration())
    with pytest.raises(TypeError):
        hash(zeta)

    # over Q(zeta_3) a map's entries are lists, so it has no hash
    m = identity(sf.field_context(3, 7))
    assert m == identity(m.ctx)
    with pytest.raises(TypeError):
        hash(m)


@pytest.mark.parametrize("p, ell, points", [
    (2, 5, [7, 12, 0, 5, 1, "inf"]),  # not good after one fold
    (3, 7, [8, 299, 9, 4, "inf", 204, 5, 2405]),  # good after one fold
    (3, 3, [5, 8, 2, 731, 170, 3, 248, "inf"]),  # good without a fold
])
def test_a_verdict_survives_pickling(p, ell, points):
    # a verdict holds paired stages, each with its skeleton; the context is
    # pickled as its field and comes back as the shared context, even once
    # the ring has stored a kernel, and INF_STEPS comes back as itself
    ctx = sf.field_context(p, ell)
    ctx.integers.mul(ctx.integers.one, ctx.integers.one)
    verdict = sf.run_algorithm(ctx, sf.configuration(ctx, points))
    loaded = pickle.loads(pickle.dumps(verdict))
    assert loaded == verdict and type(loaded) is type(verdict)
    stage = loaded.s_min if isinstance(loaded, sf.Good) else loaded.trace[-1].before
    assert stage.ctx is ctx and stage.skeleton.depths[-1] is INF_STEPS


def test_a_pairing_error_survives_pickling():
    # a refusal sent between processes keeps its failure and its message
    ctx = sf.field_context(2, 2)
    with pytest.raises(sf.PairingError) as info:
        sf.pair_up(sf.configuration(ctx, [0, 4, 1, "inf"]))
    loaded = pickle.loads(pickle.dumps(info.value))
    assert type(loaded) is sf.PairingError and loaded.failure is sf.PairingFailure.NOT_SEPARATED
    assert str(loaded) == str(info.value) == "separation margin 2 is not > twice the radius"


def test_a_repeated_points_error_survives_pickling():
    # a refusal sent between processes keeps the classes of repeated
    # points, infinity's among them, and its message
    ctx = sf.field_context(2, 2)
    with pytest.raises(sf.RepeatedPointsError) as info:
        sf.pair_up(sf.configuration(ctx, [0, "inf", 1, 0, 4, "inf", 5, 0]))
    loaded = pickle.loads(pickle.dumps(info.value))
    assert type(loaded) is sf.RepeatedPointsError and isinstance(loaded, ValueError)
    assert loaded.classes == info.value.classes == ((0, 3, 7), (1, 5))
    assert str(loaded) == str(info.value) == "the points are not distinct"
