"""Smoke coverage for the second dimension and the OU-driven construction.

Desk-scale work is one-dimensional; these tests pin that the generic code
paths (grids, particle stepping, coefficients, SPDE) stay correct on a small
two-dimensional grid and for the hidden-state force model.
"""

import numpy as np
import pytest

from kinlim.coefficients import (compute_coefficients, compute_cov_operator,
                                 draw_stationary, verify_enhancement)
from kinlim.equilibrium import FP, LB
from kinlim.forcing import (ForceFieldModel, generate_path, ou_single_mode,
                            two_point_renewal)
from kinlim.kinetic import (KineticRunConfig, make_ensemble, moments,
                            run_rescaled, step_micro)
from kinlim.rng import substream
from kinlim.spde import mean_equation_solve
from kinlim.torus import TorusField, TorusGrid, pairing


def two_point_2d(grid, amplitude):
    def comp(x, y):
        out = np.zeros((2,) + x.shape)
        out[0] = amplitude * np.cos(2 * np.pi * x)
        out[1] = 0.5 * amplitude * np.sin(2 * np.pi * y)
        return out

    atom = TorusField.from_function(grid, 1, comp)
    return ForceFieldModel("renewal", grid, atoms=[atom, -1.0 * atom])


def test_particles_2d_mass_and_equilibrium():
    grid = TorusGrid(2, 16)
    model = two_point_2d(grid, 0.4)
    cfg = KineticRunConfig(FP, 0.5, 0.01, dt=0.02, n_particles=20_000,
                           grid=grid)
    path = generate_path(model, cfg.micro_horizon + 0.1, seed=1)
    rho0 = TorusField.constant(grid, 1.0)
    run = run_rescaled(cfg, path, rho0, seed=2, n_checkpoints=2)
    one = TorusField.constant(grid, 1.0)
    for est in run.estimates:
        assert pairing(est.rho, one) == pytest.approx(1.0, abs=1e-12)
    # velocity second moment sum_i w_i v_i v_i^T stays near the identity
    ens = run.ensemble
    k_global = np.einsum("i,ij,ik->jk", ens.weights, ens.velocities,
                         ens.velocities)
    assert np.max(np.abs(k_global - np.eye(2))) < 0.05


def test_coefficients_2d_closed_form():
    grid = TorusGrid(2, 8)
    model = two_point_2d(grid, 0.4)
    coeffs = compute_coefficients(draw_stationary(model, grid), LB)
    x, y = grid.coords()
    # Id + (3/2) E[e x e] with e = (a cos(2 pi x), a/2 sin(2 pi y))
    e0 = 0.4 * np.cos(2 * np.pi * x)
    e1 = 0.2 * np.sin(2 * np.pi * y)
    assert np.max(np.abs(coeffs.diffusion.values[0, 0] - (1 + 1.5 * e0**2))) \
        < 1e-10
    assert np.max(np.abs(coeffs.diffusion.values[1, 1] - (1 + 1.5 * e1**2))) \
        < 1e-10
    assert np.max(np.abs(coeffs.diffusion.values[0, 1] - 1.5 * e0 * e1)) \
        < 1e-10
    cov = compute_cov_operator(draw_stationary(model, grid))
    # the atom is one fixed vector field, so the kernel is rank one with
    # eigenvalue ||f||^2 = a^2/2 + (a/2)^2/2
    assert cov.rank == 1
    assert cov.eigenvalues[0] == pytest.approx(
        0.4**2 / 2 + 0.2**2 / 2, rel=1e-10)
    rep = verify_enhancement(coeffs, cov)
    assert rep.passed


def test_spde_2d_heat_mode_decay():
    grid = TorusGrid(2, 16)
    from kinlim.forcing import zero_renewal
    zero = zero_renewal(grid)
    ident = compute_coefficients(draw_stationary(zero, grid), LB)
    rho0 = TorusField.from_function(
        grid, 0, lambda x, y: 1.0 + np.cos(2 * np.pi * x)
        + 0.5 * np.cos(2 * np.pi * y))
    out = mean_equation_solve(ident, rho0, 0.02, 5e-5)
    coef = out.spectrum()
    decay = np.exp(-4 * np.pi**2 * 0.02)
    assert abs(coef[1, 0] - 0.5 * decay) < 1e-4
    assert abs(coef[0, 1] - 0.25 * decay) < 1e-4


def test_ou_coefficients_ballpark():
    # linear link, clipping inactive at radius 8: the stationary draws are
    # Gaussian with coefficient variance a^2, so E[e x e](x) =
    # a^2 cos^2(2 pi x) as in the two-point case, and with the exact
    # resolvents R_lam e = e / (1 + lam) the coefficients land on the same
    # closed form up to the Monte Carlo error of the draws
    grid = TorusGrid(1, 16)
    amp = 0.5
    model = ou_single_mode(grid, amp, clip_radius=8.0)
    draws = draw_stationary(model, grid, 150, seed=6)
    coeffs = compute_coefficients(draws, LB)
    xs = grid.axis()
    expected = 1.0 + 1.5 * amp**2 * np.cos(2 * np.pi * xs) ** 2
    tol = 3 * np.max(coeffs.diffusion_stderr)
    assert np.max(np.abs(coeffs.diffusion.values[0, 0] - expected)) < tol
    # drift: R_lam e = e / (1 + lam) while the clip is inactive, so it is the
    # two-point closed form at b = 2
    b = 2.0
    c, s = np.cos(2 * np.pi * xs), np.sin(2 * np.pi * xs)
    expected = (b / 2) * amp**2 * 2 * c * (-2 * np.pi * s) \
        + 0.5 * amp**2 * c * (-2 * np.pi * s)
    tol = 3 * np.max(coeffs.drift_stderr)
    assert np.max(np.abs(coeffs.drift.values[0] - expected)) < tol


def test_ou_cov_operator_rank_one():
    grid = TorusGrid(1, 16)
    amp = 0.5
    model = ou_single_mode(grid, amp, clip_radius=8.0)
    cov = compute_cov_operator(draw_stationary(model, grid, 200, seed=7))
    # kernel approximates a^2 u^2 cos cos with E[u^2] = 1: lambda1 ~ a^2/2
    assert cov.rank >= 1
    assert cov.eigenvalues[0] == pytest.approx(amp**2 / 2, rel=0.25)
