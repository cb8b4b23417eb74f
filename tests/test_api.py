"""The public API: the names ``__all__`` writes out, and nothing else."""

from __future__ import annotations

import ast
import importlib.util
import re
import types
from pathlib import Path

import schottkyfold as sf

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
