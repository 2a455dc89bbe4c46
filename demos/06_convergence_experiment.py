"""The headline experiment, at demonstration scale.

For a decreasing sequence of scaling parameters, the law of the kinetic
density functionals <rho^eps_T, xi> is compared against the law produced by
the limit equation; the gaps in mean and variance shrink as eps decreases.
Scaled down (few realizations) so it runs in about a minute; the acceptance
suite runs the full desk-scale version.
"""

import numpy as np

from kinlim.config import ExperimentConfig
from kinlim.experiment import (coefficients_stage, convergence_study)

cfg = ExperimentConfig(
    epsilons=(0.5, 0.35, 0.25),
    n_particles=5_000,
    n_realizations=96,
    n_spde_realizations=128,
    out_dir="demo_out",
    seed=41,
)

coeffs, cov, report, _ = coefficients_stage(cfg)
print(f"coefficient stage: enhancement "
      f"{'PASS' if report.passed else 'FAIL'}, noise rank {cov.rank}")

rep = convergence_study(cfg, coeffs, cov)
print("\n   eps    xi     mean gap (se)       var gap (se)        KS")
for i, eps in enumerate(rep.epsilons):
    for j, name in enumerate(rep.xi_names):
        print(f"  {eps:5.3f}  {name:5s}  "
              f"{rep.mean_gaps[i, j]:8.5f} ({rep.mean_gap_se[i, j]:.5f})  "
              f"{rep.var_gaps[i, j]:8.5f} ({rep.var_gap_se[i, j]:.5f})  "
              f"{rep.ks_stats[i, j]:.3f}")
print(f"\nmean-gap trend monotone within 1 se: {rep.mean_trend_ok}")
print(f"variance-gap trend monotone within 1 se: {rep.var_trend_ok}")
