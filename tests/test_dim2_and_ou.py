"""Smoke coverage for the second dimension and the OU-driven construction.

Desk-scale work is one-dimensional; these tests pin that the generic code
paths (grids, particle stepping, coefficients, SPDE) stay correct on a small
two-dimensional grid and for the hidden-state force model.
"""

import math

import numpy as np
import pytest

from kinlim import coefficients
from kinlim.coefficients import (OU_NODES, _ou_nodes, compute_coefficients,
                                 compute_cov_operator, draw_stationary,
                                 verify_enhancement)
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


def exact_pass(model, grid):
    """The coefficients of both collisions and the covariance, from one
    stationary pass."""
    draws = draw_stationary(model, grid)
    return ([compute_coefficients(draws, c) for c in (LB, FP)],
            compute_cov_operator(draws))


def test_ou_coefficients_exact_at_clip_radius_8():
    # linear link, the clamp moves the law by P(|u| > 8) ~ 1e-15: the state
    # has variance 1 and R_lam e = e / (1 + lam), so K and Theta are the
    # two-point closed forms, which the quadrature nodes hit to rounding
    # (1.3e-14 measured)
    grid = TorusGrid(1, 64)
    ou, _ = exact_pass(ou_single_mode(grid, 0.5, clip_radius=8.0), grid)
    two_point, _ = exact_pass(two_point_renewal(grid, 0.5), grid)
    for c, ref in zip(ou, two_point):
        assert np.max(np.abs(c.diffusion.values - ref.diffusion.values)) \
            < 1e-12
        assert np.max(np.abs(c.drift.values - ref.drift.values)) < 1e-12


def test_ou_cov_operator_rank_one():
    # every node is a multiple of the link field: rank one, eigenvalue
    # a^2 E[clamp(u)^2] = a^2/2 and eigenfield sqrt(2) cos at radius 8
    grid = TorusGrid(1, 16)
    _, cov = exact_pass(ou_single_mode(grid, 0.5, clip_radius=8.0), grid)
    _, ref = exact_pass(two_point_renewal(grid, 0.5), grid)
    assert cov.rank == 1
    assert abs(cov.eigenvalues[0] - 0.5**2 / 2) < 1e-12
    assert np.max(np.abs(cov.eigenfields[0].values
                         - ref.eigenfields[0].values)) < 1e-12


@pytest.mark.parametrize("clip_radius", [5.0, 8.0])
def test_ou_nodes_integrate_the_normal_law(clip_radius):
    # moments 1, u^2, u^4 of N(0, 1), and the tail mass erfc(R / sqrt 2)
    # and tail second moment erfc(R / sqrt 2) + 2 R phi(R) beyond +/-R,
    # all to rounding (6e-15 measured)
    u, w = _ou_nodes(clip_radius)
    assert np.allclose([w.sum(), w @ u**2, w @ u**4], [1, 1, 3], rtol=1e-13,
                       atol=0)
    tail = np.abs(u) > clip_radius
    mass = math.erfc(clip_radius / math.sqrt(2))
    phi = math.exp(-0.5 * clip_radius**2) / math.sqrt(2 * math.pi)
    assert w[tail].sum() == pytest.approx(mass, rel=1e-13, abs=0)
    assert w[tail] @ u[tail]**2 == pytest.approx(
        mass + 2 * clip_radius * phi, rel=1e-13, abs=0)


@pytest.mark.parametrize("clip_radius", [5.0, 8.0])
def test_ou_nodes_converge_under_doubling(monkeypatch, clip_radius):
    # twice the Legendre and Laguerre nodes move K, Theta and the leading
    # eigenvalue only at rounding level (4e-14 or less measured)
    grid = TorusGrid(1, 16)
    model = ou_single_mode(grid, 0.5, clip_radius=clip_radius)
    c1, k1 = exact_pass(model, grid)
    monkeypatch.setattr(coefficients, "OU_NODES",
                        tuple(2 * n for n in OU_NODES))
    c2, k2 = exact_pass(model, grid)
    assert k2.n_nodes == 2 * k1.n_nodes
    for a, b in zip(c1, c2):
        assert np.max(np.abs(a.diffusion.values - b.diffusion.values)) \
            < 1e-13
        assert np.max(np.abs(a.drift.values - b.drift.values)) < 1e-13
    assert abs(k1.eigenvalues[0] - k2.eigenvalues[0]) < 1e-13
