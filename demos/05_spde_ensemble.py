"""Solving the limit stochastic drift-diffusion equation.

Checks the solver against the heat kernel, runs a small ensemble, and
compares the empirical quadratic variation of a test functional with the
covariance-operator prediction.
"""

import numpy as np

from kinlim.coefficients import (compute_coefficients, compute_cov_operator,
                                 draw_stationary)
from kinlim.equilibrium import LB
from kinlim.forcing import two_point_renewal, zero_renewal
from kinlim.spde import (mean_equation_solve, quadratic_variation_check,
                         run_ensemble)
from kinlim.torus import TorusField, TorusGrid

grid = TorusGrid(1, 64)
amp = 0.5

zero = zero_renewal(grid)
ident = compute_coefficients(zero, LB, grid,
                             draw_stationary(zero, grid, 128, seed=31))
rho0 = TorusField.from_function(grid, 0, lambda x: 1.0 + np.cos(2 * np.pi * x))
sol = mean_equation_solve(ident, rho0, 0.05, 1e-5)
exact = 0.5 * np.exp(-4 * np.pi**2 * 0.05)
print(f"heat oracle: mode-1 amplitude {abs(sol.spectrum()[1]):.8f}, "
      f"exact {exact:.8f}")

model = two_point_renewal(grid, amp)
draws = draw_stationary(model, grid, 200, seed=32)
coeffs = compute_coefficients(model, LB, grid, draws)
cov = compute_cov_operator(grid, draws)

res = run_ensemble(coeffs, cov, rho0, 0.02, 1e-5, 128, seed=34,
                   xi_fields=[TorusField.from_function(
                       grid, 0, lambda x: np.sin(2 * np.pi * x))],
                   n_checkpoints=4)
print("\nensemble of 128 paths (mode-1 mean and sin-functional variance):")
for i, t in enumerate(res.times):
    print(f"  t={t:.3f}: |mean rho_1| = {abs(res.mean_hat[i][1]):.5f}, "
          f"var<rho, sin> = {res.samples[i][:, 0].var():.5f}")
print(f"min rho over all paths/steps: {res.min_rho:.4f} "
      f"(positivity is not enforced by the spectral scheme)")

xi = TorusField.from_function(grid, 0,
                              lambda x: np.sin(2 * np.pi * x) / (2 * np.pi))
qv = quadratic_variation_check(coeffs, cov, TorusField.constant(grid, 1.0),
                               xi, 0.005, 1e-5, 128, seed=35)
print(f"\nquadratic variation: empirical {qv.empirical.mean():.3e}, "
      f"predicted {qv.predicted.mean():.3e}, mean relative gap "
      f"{qv.mean_relative_gap:.3f}")
print(f"martingale mean {qv.martingale_mean:+.2e} "
      f"(se {qv.martingale_se:.2e})")
