"""Limit-equation data from the force-field law.

Computes the enhanced diffusion matrix, the drift, and the noise covariance
spectrum for the two-point renewal field, and verifies the closed forms and
positivity properties that make the limit equation well posed.
"""

import numpy as np

from kinlim.coefficients import (compute_coefficients, compute_cov_operator,
                                 draw_stationary, verify_enhancement)
from kinlim.equilibrium import FP, LB
from kinlim.forcing import two_point_renewal
from kinlim.torus import TorusGrid

grid = TorusGrid(1, 64)
amp = 0.5
model = two_point_renewal(grid, amp)
# one stationary pass, the law's two atoms with their weights and their
# resolvent images, is the only input of both estimators: the sums over the
# atoms are the exact expectations
draws = draw_stationary(model, grid)

for collision, coef in ((LB, 1.5), (FP, 1.0)):
    coeffs = compute_coefficients(draws, collision)
    xs = grid.axis()
    closed = 1.0 + coef * amp**2 * np.cos(2 * np.pi * xs) ** 2
    gap = np.max(np.abs(coeffs.diffusion.values[0, 0] - closed))
    print(f"{collision}: diffusion matrix vs closed form "
          f"1 + {coef} a^2 cos^2: max gap {gap:.2e}")
    print(f"    peak enhancement K(0) - 1 = "
          f"{coeffs.diffusion.values[0, 0, 0] - 1:.4f}")

cov = compute_cov_operator(draws)
print(f"\nnoise covariance: rank {cov.rank}, trace {cov.trace:.6f} "
      f"(exact a^2/2 = {amp**2/2}), dropped tail {cov.dropped_tail:.1e}")
print(f"leading eigenvalue {cov.eigenvalues[0]:.6f}; eigenfield peak "
      f"{np.max(np.abs(cov.eigenfields[0].values)):.4f} "
      f"(exact sqrt(2) = {np.sqrt(2):.4f})")

coeffs = compute_coefficients(draws, LB)
rep = verify_enhancement(coeffs, cov)
print(f"\nenhancement checks: min eig(K - Id) = {rep.min_eig_over_base:.2e}, "
      f"min eig(K - Id - sum phi phi^T) = {rep.min_eig_over_noise:.2e}")
print(f"Ito/Stratonovich split gap {rep.consistency_gap:.2e} "
      f"-> {'PASS' if rep.passed else 'FAIL'}")
