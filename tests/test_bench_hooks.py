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


# The coeffs, simulate-kinetic and simulate-spde stages of a tiny 1-D config,
# then converge at three eps with 64 + 64 realizations on the same
# coefficients, through `kinlim.cli.main` under the span hooks; prints the
# stage exit codes, the counters and the number of spans of each name.
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

def config(name, epsilons, realizations):
    path = os.path.join(out, name)
    with open(path, "w") as fh:
        fh.write(f"dim = 1\\ngrid_m = 16\\nepsilons = {epsilons}\\n"
                 "horizon = 0.002\\ndt_spde = 0.0001\\nn_particles = 100\\n"
                 f"n_realizations = {realizations}\\n"
                 f"n_spde_realizations = {realizations}\\nn_mc = 100\\n"
                 f"n_checkpoints = 2\\nseed = 3\\nout_dir = {out}\\n")
    return path

tiny = config("tiny.cfg", "0.5", 2)
codes = [kinlim.cli.main([stage, "--config", tiny])
         for stage in ("coeffs", "simulate-kinetic", "simulate-spde")]
codes.append(kinlim.cli.main(
    ["converge", "--config", config("converge.cfg", "0.5, 0.4, 0.3", 64)]))
spans_of = collections.Counter(rec.names[i] for i in rec.name_id)
print(json.dumps({"codes": codes, "counters": rec.counters,
                  "spans": spans_of}))
"""


# coeffs and simulate-spde on the benchmark's 2-D law at m=16 with 200
# realizations (blocks of 64, 64, 64 and 8) and 10 steps, under the span
# hooks; prints the stage exit codes, the counters and the span counts.
TRACED_SPDE_2D = """
import collections
import json
import os
import sys
import spans
import kinlim.cli

rec = spans.SpanRecorder()
spans.install(rec)
out = sys.argv[1]
path = os.path.join(out, "spde2d.cfg")
with open(path, "w") as fh:
    fh.write("dim = 2\\ngrid_m = 16\\nhorizon = 0.0025\\n"
             "dt_spde = 0.00025\\nn_spde_realizations = 200\\n"
             f"n_mc = 100\\nn_checkpoints = 2\\nseed = 3\\nout_dir = {out}\\n")
codes = [kinlim.cli.main([stage, "--config", path])
         for stage in ("coeffs", "simulate-spde")]
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
    # every particle-step evaluates its force through TorusField.eval_at,
    # and so do the 1-D position sampler (a 2^14-point grid, once per
    # block) and the one functional (every particle of the final ensembles)
    assert out["torus.eval_at.points"] == (
        out["kinetic.particle_steps"] + 3 * 2**14 + 5 * 200)


def test_benchmark_traces_every_stage_layer(tmp_path):
    # each layer metric the benchmark reports from these stages reads a
    # counter or a span that a removed or renamed kinlim name would leave 0
    proc = _run_in_bench(TRACED_STAGES, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    # converge exits 1 on a FAIL trend verdict, which the benchmark counts
    # as a completed stage
    assert out["codes"][:3] == [0, 0, 0] and out["codes"][3] in (0, 1)
    counters = collections.Counter(out["counters"])
    spans_of = collections.Counter(out["spans"])
    assert counters["coefficients.kernel_dim"] == 16
    # the SPDE step multiplies in Fourier space and runs no transform; the
    # hooks that count them still install (`to_physical`, `to_spectral`)
    assert counters["spde.step_hat.ffts"] == 0
    assert spans_of["spde.step_hat"] > 0
    assert counters["spde.noise_bytes"] > 0
    assert spans_of["kinetic.moments"] == 2  # one micro step: 0 and 1
    assert spans_of["forcing.value_at"] > 0
    assert counters["kinetic.lb_jumps_expected"] > 0
    assert sorted(n for n in spans_of
                  if n.startswith("kinetic.functional_samples.eps")) == [
        f"kinetic.functional_samples.eps{e}" for e in (0.3, 0.4, 0.5)]


def test_benchmark_counts_the_2d_spde_steps(tmp_path):
    # the 2-D states step cut to (realizations, 16, 1); the hook counts a
    # state's realizations as the product of the axes before the last
    # grid.dim, so the counts stay those of the half spectra
    proc = _run_in_bench(TRACED_SPDE_2D, str(tmp_path))
    assert proc.returncode == 0, proc.stderr
    out = json.loads(proc.stdout.splitlines()[-1])
    assert out["codes"] == [0, 0]
    assert out["counters"]["spde.realization_steps"] == 200 * 10
    assert out["spans"]["spde.step_hat"] == 4 * 10
    report = (tmp_path / "report_spde.txt").read_text()
    assert "64 realizations per block, 4 blocks per step" in report
    assert "modes stepped per realization: 16 of 144" in report
