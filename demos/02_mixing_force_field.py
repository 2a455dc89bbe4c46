"""Sampling the mixing force fields and checking their decorrelation.

The renewal field redraws an atom of the base law at rate-1 Poisson times;
its covariance at lag t decays like exp(-t).  Resolvents of the environment
generator have closed forms that the limit coefficients are built from.
"""

import numpy as np

from kinlim.forcing import (generate_path, ou_single_mode, resolvent_apply,
                            sample_stationary, two_point_renewal)
from kinlim.rng import substream
from kinlim.torus import TorusGrid

grid = TorusGrid(1, 64)
amp = 0.5
model = two_point_renewal(grid, amp)
print(f"two-point renewal law, amplitude {amp}, ball radius "
      f"{model.norm_bound:.4g}")

path = generate_path(model, 10.0, seed=1)
print(f"one path on [0, 10]: {int(path.jump_flags.sum())} jumps "
      f"(expected about 10)")

counts = [int(generate_path(model, 10.0, seed=substream(2, p)).jump_flags.sum())
          for p in range(2000)]
print(f"jump count over 2000 paths: mean {np.mean(counts):.3f}, "
      f"variance {np.var(counts):.3f} (Poisson(10): both 10)")

x = np.array([[0.0]])
print("\nlag-t covariance of E(t,0) E(0,0) against a^2 exp(-t):")
for lag in (0.0, 0.5, 1.0, 2.0):
    prods = np.empty(3000)
    for p in range(prods.size):
        path = generate_path(model, max(lag, 0.01), seed=substream(3, 7, p))
        prods[p] = path.value_at(lag).field.eval_at(x)[0, 0] \
            * path.value_at(0.0).field.eval_at(x)[0, 0]
    se = prods.std(ddof=1) / np.sqrt(prods.size)
    print(f"  lag {lag:3.1f}: {prods.mean():+.4f} "
          f"(se {se:.4f}, exact {amp**2*np.exp(-lag):+.4f})")

s = sample_stationary(model, 4)
r0 = resolvent_apply(model, 0.0, s, seed=7)
r1 = resolvent_apply(model, 1.0, s, seed=8)
print(f"\nrenewal resolvents: max|R0(e) - e| = "
      f"{np.max(np.abs(r0.physical() - s.field.physical())):.1e}, "
      f"max|R1(e) - e/2| = "
      f"{np.max(np.abs(r1.physical() - 0.5*s.field.physical())):.1e}")

ou = ou_single_mode(grid, amp)
s_ou = sample_stationary(ou, 5)
r1_ou = resolvent_apply(ou, 1.0, s_ou, seed=6, n_replicates=200)
print(f"OU-driven field: state u0 = {s_ou.state[0]:+.4f}, Monte Carlo "
      f"R1 coefficient {r1_ou.eval_at(x)[0, 0]:+.4f} "
      f"(linear-link prediction {0.5*s_ou.state[0]*amp:+.4f})")
