"""numpy is psgp's only runtime dependency: scipy is a test oracle, and
importing it would add about a second to every CLI process."""
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]

PROBE = """
import sys
import numpy as np
import psgp.cli
from psgp import autodiff as ad
from psgp.stats import LogisticModel, auc, chi_square, kruskal_wallis, odds_ratios

x = np.linspace(-9.0, 9.0, 19)
t = ad.Tensor(x, requires_grad=True)
ad.backward(ad.tsum(ad.gelu(t)))
ad.terf(ad.Tensor(x))
auc([0.1, 0.4, 0.4, 0.9], [0, 1, 0, 1])
model = LogisticModel("CVD", ("x",), np.array([0.0, 0.7]), np.eye(2) * 0.09, True, 4)
odds_ratios(model)
kruskal_wallis([[1.0, 2.0, 2.0], [3.0, 4.0]])
chi_square([[10, 20], [30, 40]])
print(sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")))
"""


def test_cli_and_numeric_paths_load_no_scipy():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def test_numpy_is_the_only_runtime_dependency():
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    project = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))["project"]
    names = [re.match(r"[A-Za-z0-9_.-]+", dep).group(0) for dep in project["dependencies"]]
    assert names == ["numpy"]
