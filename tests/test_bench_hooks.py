"""The benchmark wraps kinlim functions by name; renaming one breaks it."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# A small lb functional_samples run under the benchmark's span hooks, with
# two realizations per block so that five realizations make three blocks.
TRACED_RUN = """
import json
import numpy as np
import spans
from kinlim import kinetic
from kinlim.forcing import two_point_renewal
from kinlim.torus import TorusField, TorusGrid

rec = spans.SpanRecorder()
spans.install(rec)
grid = TorusGrid(1, 32)
cfg = kinetic.KineticRunConfig("lb", 0.5, 0.05, 0.025, 200, grid)
kinetic.BLOCK_PARTICLES = 2 * cfg.n_particles
xi = [TorusField.constant(grid, 1.0)]
kinetic.functional_samples(cfg, two_point_renewal(grid, 0.5),
                           TorusField.constant(grid, 1.0), xi, 5, seed=3)
step_calls = sum(1 for i in rec.name_id
                 if rec.names[i] == "kinetic.step_micro")
print(json.dumps({"n_steps": cfg.n_steps, "step_calls": step_calls,
                  **rec.counters}))
"""


def _run_in_bench(code):
    # in a subprocess: install() patches kinlim for the whole interpreter
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code], cwd=ROOT / "bench",
                          env=env, capture_output=True, text=True)


def test_benchmark_span_hooks_install():
    proc = _run_in_bench("import spans; spans.install(spans.SpanRecorder())")
    assert proc.returncode == 0, proc.stderr


def test_benchmark_traces_every_particle_step():
    # a stepping path that bypassed step_micro would leave these short
    proc = _run_in_bench(TRACED_RUN)
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["kinetic.particle_steps"] == 5 * 200 * out["n_steps"]
    assert out["step_calls"] == 3 * out["n_steps"]
    assert out["kinetic.lb_jumps_expected"] > 0
