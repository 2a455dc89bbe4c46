"""The benchmark wraps kinlim functions by name; renaming one breaks it."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_benchmark_span_hooks_install():
    # in a subprocess: install() patches kinlim for the whole interpreter
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    proc = subprocess.run(
        [sys.executable, "-c",
         "import spans; spans.install(spans.SpanRecorder())"],
        cwd=ROOT / "bench", env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
