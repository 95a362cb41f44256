"""The experiment scripts and the README's library sketch run against the
package as it is: a root name they use cannot disappear unnoticed."""

import importlib.util
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from riskmono import Dataset

ROOT = Path(__file__).resolve().parents[1]


def _load_script(name):
    spec = importlib.util.spec_from_file_location(f"script_{name}", ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # runs the imports and module constants, not main()
    return module


@pytest.mark.parametrize("name", ["bench_pairs", "sweep_curves"])
def test_script_imports_resolve(name):
    assert callable(_load_script(name).main)


def test_bench_pairs_reports_two_checkouts(tmp_path):
    out = tmp_path / "bench.json"
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "bench_pairs.py"), "--checkout", f"a={ROOT}",
         "--checkout", f"b={ROOT}", "--cases", "import,profile_mn2ls", "--pairs", "1", "--out", str(out)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert list(report) == ["script", "host", "envs", "run_seconds", "cases", "checkouts", "pairs",
                            "outputs_change", "results", "output_sha256", "compare"]
    assert report["checkouts"] == ["a", "b"]
    assert set(report["results"]["import"]["b"]) == {"wall_s", "cpu_s", "peak_rss_mb", "import_s"}
    assert set(report["results"]["profile_mn2ls"]["a"]["wall_s"]) == {"median", "q1", "q3", "samples"}
    assert list(report["output_sha256"]) == ["profile_mn2ls"]
    assert report["compare"]["profile_mn2ls"]["wall_s"]["pairs"] == 1


def test_bench_pairs_rejects_unequal_outputs():
    bench = _load_script("bench_pairs")
    seen = {"one_default,one_pinned": {"a": {"x"}, "b": {"y"}}, "sweep": {"a": {"z"}, "b": {"z"}}}
    with pytest.raises(SystemExit, match="one_default,one_pinned: the output differs across checkouts"):
        bench.same_outputs(seen, outputs_change=False)
    assert bench.same_outputs(seen, outputs_change=True) == {
        "one_default,one_pinned": {"a": "x", "b": "y"}, "sweep": {"a": "z", "b": "z"}}
    # a checkout's own outputs must agree, also when outputs may change
    with pytest.raises(SystemExit, match="sweep: the output varies across samples or environments in b$"):
        bench.same_outputs({"sweep": {"a": {"z"}, "b": {"z", "w"}}}, outputs_change=True)


def test_bench_pairs_gain_verdict():
    # a gain: the second lower in at least 9 of 10 pairs, and its median below
    # the first's by more than the first's q3 - q1
    bench = _load_script("bench_pairs")
    first = [1.0 + 0.01 * i for i in range(10)]  # median 1.045, q3 - q1 0.055
    verdict = lambda second: bench.compare({"cpu_s": first}, {"cpu_s": second})["cpu_s"]["gain"]
    assert verdict([x - 0.06 for x in first])
    assert not verdict([x - 0.05 for x in first])  # within the first's spread
    nine = [x - 0.2 for x in first[:9]] + [first[9] + 1.0]
    assert verdict(nine) and not verdict(nine[:8] + [first[8] + 1.0, nine[9]])


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
