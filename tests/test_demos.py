"""The narrative scripts in demos/ and the README's Quick tour run to completion."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


@pytest.mark.parametrize("script", DEMOS, ids=[p.name for p in DEMOS])
def test_demo_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(script)], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr


def test_readme_quick_tour_runs(capsys):
    # the tour uses only names exported by fqg/__init__.py
    tour = (ROOT / "README.md").read_text(encoding="utf-8").split("## Quick tour", 1)[1]
    code = tour.split("```python\n", 1)[1].split("```", 1)[0]
    exec(compile(code, "README.md", "exec"), {})
    out = capsys.readouterr().out
    assert out.count("[PASS] ") == 78 and "[FAIL]" not in out
    assert out.rstrip().endswith("ALL CHECKS PASSED (78 checks)")
