"""Each demo script prints exactly its recorded output.

The demos are deterministic, so their stdout is compared byte for byte with
``golden/demo_NN.txt``; a change anywhere in the chain that alters what a
demo prints shows up here.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("demo", DEMOS, ids=[p.stem for p in DEMOS])
def test_demo_output_is_golden(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    proc = subprocess.run(
        [sys.executable, str(demo)], cwd=ROOT, env=env, capture_output=True, check=True
    )
    golden = Path(__file__).parent / "golden" / ("demo_%s.txt" % demo.name[:2])
    assert proc.stdout == golden.read_bytes()
