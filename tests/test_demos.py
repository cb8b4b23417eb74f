"""Every demo's stdout, byte for byte, against ``demos/expected/<name>.txt``."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

from helpers import module_env

DEMOS = Path(__file__).resolve().parent.parent / "demos"


def test_every_demo_has_pinned_output():
    demos = {p.stem for p in DEMOS.glob("*.py")}
    assert demos and demos == {p.stem for p in (DEMOS / "expected").glob("*.txt")}


@pytest.mark.parametrize("name", sorted(p.stem for p in DEMOS.glob("*.py")))
def test_demo_output_matches(name):
    proc = subprocess.run(
        [sys.executable, str(DEMOS / f"{name}.py")],
        capture_output=True,
        env=module_env(),
    )
    assert proc.returncode == 0, proc.stderr.decode()
    assert proc.stdout == (DEMOS / "expected" / f"{name}.txt").read_bytes()
