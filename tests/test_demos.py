"""Every demo script runs to completion, each in a fresh interpreter."""

import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv", [
    ["attention_approximation.py"],
    ["cost_accounting.py"],
    ["complexity_benchmark.py", "--quick"],
    ["inpainting_toy_run.py", "--iters", "2"],
    ["gradient_verification.py"],
    ["forward_memory.py", "--quick"],
], ids=lambda argv: argv[0])
def test_demo_exits_zero(tmp_path, argv):
    # The demos write their outputs into the working directory.
    path = [str(REPO / "src"), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in path if p))
    proc = subprocess.run([sys.executable, str(REPO / "demos" / argv[0]), *argv[1:]],
                          cwd=tmp_path, env=env, capture_output=True, text=True,
                          timeout=600)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]


def test_gradient_verification_exits_3_on_failure(monkeypatch):
    spec = importlib.util.spec_from_file_location(
        "gradient_verification", REPO / "demos" / "gradient_verification.py")
    demo = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(demo)
    monkeypatch.setattr(demo, "run_gradcheck",
                        lambda scope, seed: (False, ["op x: FAIL at 1e-4"]))
    assert demo.main() == 3
