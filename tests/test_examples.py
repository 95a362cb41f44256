"""The experiment scripts and the README's library sketch run against the
package as it is: a root name they use cannot disappear unnoticed."""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riskmono import Dataset

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("name", ["compare_fits", "sweep_curves"])
def test_script_imports_resolve(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # runs the imports and module constants, not main()
    assert callable(module.main)


def test_profile_curves_writes_its_csv(tmp_path):
    out = tmp_path / "profiles.csv"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "profile_curves.py"), "--points", "3", "--out", str(out)],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    lines = out.read_text().splitlines()
    assert lines[0] == "gamma,mn2ls,mn1ls,monotonized_mn2ls,onestep_optimized,v,tv,tvg"
    assert len(lines) == 4


def test_readme_library_sketch_runs(tmp_path, monkeypatch, capsys):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library sketch", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    # large enough for block=50, n_te=100: a 200-row training split gives
    # two zero-step candidates
    rng = np.random.default_rng(5)
    X = rng.standard_normal((300, 20))
    Dataset(X, X @ rng.standard_normal(20) + rng.standard_normal(300)).to_csv(tmp_path / "d.csv")
    monkeypatch.chdir(tmp_path)
    namespace = {}
    exec(compile(code, "README.md", "exec"), namespace)
    assert len(namespace["curve"]) == 50
    assert capsys.readouterr().out.strip()
