"""The benchmark wraps kinlim functions by name; renaming one breaks it."""

import collections
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


# The coeffs, simulate-kinetic and simulate-spde stages of a tiny 1-D config
# through `kinlim.cli.main` under the span hooks; prints the stage exit
# codes, the counters and the number of spans of each name.
TRACED_STAGES = """
import collections
import json
import os
import sys
import spans
import kinlim.cli

rec = spans.SpanRecorder()
spans.install(rec)
out = sys.argv[1]
config = os.path.join(out, "tiny.cfg")
with open(config, "w") as fh:
    fh.write("dim = 1\\ngrid_m = 16\\nepsilons = 0.5\\nhorizon = 0.002\\n"
             "dt_spde = 0.0001\\nn_particles = 100\\nn_realizations = 2\\n"
             "n_spde_realizations = 2\\nn_mc = 100\\nn_checkpoints = 2\\n"
             f"seed = 3\\nout_dir = {out}\\n")
codes = [kinlim.cli.main([stage, "--config", config])
         for stage in ("coeffs", "simulate-kinetic", "simulate-spde")]
spans_of = collections.Counter(rec.names[i] for i in rec.name_id)
print(json.dumps({"codes": codes, "counters": rec.counters,
                  "spans": spans_of}))
"""


def _run_in_bench(code, *args):
    # in a subprocess: install() patches kinlim for the whole interpreter
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    return subprocess.run([sys.executable, "-c", code, *args],
                          cwd=ROOT / "bench",
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


def test_benchmark_traces_every_stage_layer(tmp_path):
    # each layer metric the benchmark reports from these stages reads a
    # counter or a span that a removed or renamed kinlim name would leave 0
    proc = _run_in_bench(TRACED_STAGES, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0, 0]
    counters = collections.Counter(out["counters"])
    spans_of = collections.Counter(out["spans"])
    assert counters["coefficients.kernel_dim"] == 16
    assert counters["spde.step_hat.ffts"] > 0
    assert counters["spde.noise_bytes"] > 0
    assert spans_of["kinetic.moments"] == 2  # one micro step: 0 and 1
    assert spans_of["forcing.value_at"] > 0
