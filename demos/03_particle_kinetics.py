"""Particle simulation of the forced kinetic dynamics.

Runs the jump-collision engine at a moderate scaling parameter, watching
mass conservation, velocity equilibration, and the comparison between the
particle velocity histogram and the local equilibrium profile computed from
the same force path.
"""

import numpy as np

from kinlim.equilibrium import LB, invariant_solution
from kinlim.forcing import PathBlock, generate_path, two_point_renewal
from kinlim.kinetic import KineticRunConfig, make_ensemble, run_rescaled, \
    step_micro
from kinlim.rng import substream
from kinlim.torus import TorusField, TorusGrid, pairing

grid = TorusGrid(1, 64)
model = two_point_renewal(grid, 0.5)
eps = 0.25

cfg = KineticRunConfig(LB, eps, horizon=0.05, dt=0.1 * eps**2,
                       n_particles=50_000, grid=grid)
rho0 = TorusField.from_function(grid, 0,
                                lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x))
path = generate_path(model, cfg.micro_horizon * 1.001 + 1e-9, seed=11)
run = run_rescaled(cfg, path, rho0, seed=12, n_checkpoints=5)

one = TorusField.constant(grid, 1.0)
print("t        mass            |J|_0      J2 total   J3 total")
for t, est in zip(run.times, run.estimates):
    print(f"{t:7.4f}  {pairing(est.rho, one):.12f}  "
          f"{np.abs(est.current.values).max():9.4f}  "
          f"{est.totals[2]:9.4f}  {est.totals[3]:9.4f}")

# velocity law against the local equilibrium from the same path history
micro_t = 5.0
long_path = generate_path(model, micro_t + 20.0, seed=13, t_start=-20.0)
block = PathBlock([long_path])
rng = substream(14)
ens = make_ensemble(TorusField.constant(grid, 1.0), 40_000, 1.0, rng)
dt = 0.02
for _ in range(int(micro_t / dt)):
    ens = step_micro(ens, block, dt, rng, LB)
hist, edges = np.histogram(ens.velocities[:, 0], bins=48, range=(-6, 6),
                           density=True)
v_grid = np.linspace(-8, 8, 257)
prof = np.zeros(v_grid.size)
past = long_path.shifted(-micro_t)
for xv in np.linspace(0, 1, 8, endpoint=False):
    prof += invariant_solution(past, LB, np.array([[xv]]), v_grid)
prof /= 8
centers = 0.5 * (edges[:-1] + edges[1:])
gap = np.sum(np.abs(hist - np.interp(centers, v_grid, prof))) \
    * (edges[1] - edges[0])
print(f"\nL1 gap between particle velocity law and the x-averaged local "
      f"equilibrium after micro time {micro_t}: {gap:.4f}")
print("(diagnostic only; the limit theory does not quantify this gap)")
