"""Smoke test: the narrative demos run to completion and print something.

Demos 01-05 call the public API end to end (``build_efim``, ``efim_bounds``,
``agent_efim``, the ranging helpers), so a broken signature or a crash on
their inputs shows here. ``06_scaling_laws.py`` is left out: it runs full
dense and extended scaling sweeps and takes 40-97 s, almost all of it in
the extended-network draws.
"""

import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted(p for p in (ROOT / "demos").glob("0[1-5]_*.py"))


def test_demo_set_found():
    assert [p.name[:2] for p in DEMOS] == ["01", "02", "03", "04", "05"]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, str(demo)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()
