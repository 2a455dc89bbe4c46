import numpy as np
import pytest

from kinlim.duhamel import mild_lb_oracle
from kinlim.equilibrium import LB, invariant_solution, maxwellian, \
    path_weighted_integral
from kinlim.forcing import (PathBlock, constant_two_point_renewal,
                            generate_path, two_point_renewal, zero_renewal)
from kinlim.torus import TorusGrid

VMAX = 8.0


def vaxis(n=257):
    return np.linspace(-VMAX, VMAX, n)


def maxwell_init(x, v):
    return np.ones_like(x) * maxwellian(v[..., None])


def test_global_equilibrium_invariant():
    grid = TorusGrid(1, 16)
    va = vaxis()
    path = generate_path(zero_renewal(grid), 1.2, seed=1)
    f = mild_lb_oracle(maxwell_init, grid, va, path, 1.0, window=0.1)
    xm, vm = np.meshgrid(grid.axis(), va, indexing="ij")
    assert np.max(np.abs(f - maxwell_init(xm, vm))) < 1e-6


def test_mass_conservation():
    grid = TorusGrid(1, 32)
    va = vaxis()
    model = two_point_renewal(grid, 0.5)
    path = generate_path(model, 2.2, seed=2)

    def f0(x, v):
        return (1.0 + 0.5 * np.cos(2 * np.pi * x)) * maxwellian(v[..., None])

    f = mild_lb_oracle(f0, grid, va, path, 2.0, window=0.05)
    dv = va[1] - va[0]
    mass = f.sum() * dv / grid.m
    assert mass == pytest.approx(1.0, abs=1e-8)


def test_moment_evolution_matches_closed_form():
    # space-homogeneous force: J(f_t) = e^-t J(0) + rho int e^{-(t-s)} E(s) ds
    grid = TorusGrid(1, 8)
    va = vaxis(513)
    model = constant_two_point_renewal(grid, 0.5)
    path = generate_path(model, 2.2, seed=3)
    f = mild_lb_oracle(maxwell_init, grid, va, path, 2.0, window=0.02)
    dv = va[1] - va[0]
    j_obs = float(np.sum(f * va[None, :]) * dv / grid.m)
    x0 = np.array([[0.0]])
    drift = np.exp(-2.0) * path_weighted_integral(path, x0, 1.0, 0.0, 2.0)[0, 0]
    assert j_obs == pytest.approx(drift, abs=1e-5 * max(abs(drift), 1.0))
    # second checkpoint at an earlier time
    f1 = mild_lb_oracle(maxwell_init, grid, va, path, 0.7, window=0.02)
    j1 = float(np.sum(f1 * va[None, :]) * dv / grid.m)
    d1 = np.exp(-0.7) * path_weighted_integral(path, x0, 1.0, 0.0, 0.7)[0, 0]
    assert j1 == pytest.approx(d1, abs=1e-5 * max(abs(d1), 1.0))


def test_convergence_to_invariant_profile():
    # solve from -T with the same path realization; the gridded solution at
    # time 0 approaches rho * M0 in L^1 as T grows
    grid = TorusGrid(1, 8)
    va = vaxis(257)
    model = constant_two_point_renewal(grid, 0.5)
    dv = va[1] - va[0]
    gaps = []
    for t_trunc in (2.0, 5.0, 10.0):
        path = generate_path(model, 25.0, seed=4, t_start=-25.0 + 1e-9)
        f = mild_lb_oracle(maxwell_init, grid, va, path, 0.0,
                           t_start=-t_trunc, window=0.1)
        prof = invariant_solution(path, LB, np.array([[0.0]]), va)
        gap = float(np.sum(np.abs(f[0] - prof)) * dv)
        gaps.append(gap)
    assert gaps[0] > gaps[1] > gaps[2] or gaps[1] < 0.02
    assert gaps[2] < 0.02


def test_nonconvergence_raises():
    # non-uniform density so the first Picard guess is inexact, and a window
    # long enough that one sweep cannot contract below tolerance
    grid = TorusGrid(1, 8)
    va = vaxis(129)
    path = generate_path(zero_renewal(grid), 1.2, seed=5)

    def f0(x, v):
        return (1.0 + 0.8 * np.cos(2 * np.pi * x)) * maxwellian(v[..., None])

    with pytest.raises(RuntimeError):
        mild_lb_oracle(f0, grid, va, path, 1.0, window=1.0, max_sweeps=1)


def test_preconditions():
    grid = TorusGrid(1, 8)
    va = vaxis(129)
    path = generate_path(zero_renewal(grid), 0.5, seed=6)
    with pytest.raises(ValueError):
        mild_lb_oracle(maxwell_init, grid, va, path, 1.0)  # short path
    with pytest.raises(ValueError):
        mild_lb_oracle(maxwell_init, TorusGrid(2, 8), va, path, 0.4)


def test_particles_match_oracle_on_shared_path():
    # same conditioning path: the particle functional <rho_t, cos> agrees
    # with the gridded mild solution up to sampling noise and O(dt) bias
    from kinlim.kinetic import ParticleEnsemble, step_micro
    from kinlim.rng import substream

    grid = TorusGrid(1, 32)
    va = vaxis(257)
    model = two_point_renewal(grid, 0.5)
    path = generate_path(model, 1.1, seed=11)
    t_final = 1.0

    def f0(x, v):
        return (1.0 + 0.5 * np.cos(2 * np.pi * x)) * maxwellian(v[..., None])

    f = mild_lb_oracle(f0, grid, va, path, t_final, window=0.05)
    dv = va[1] - va[0]
    rho_grid = f.sum(axis=1) * dv
    target = float(np.mean(rho_grid * np.cos(2 * np.pi * grid.axis())))

    n, dt = 200_000, 0.005
    rng = substream(12)
    # positions from the same banded density, velocities Maxwellian
    u = rng.random(2 * n)
    xs = u[: n]
    acc = rng.random(n) * 1.5 <= 1.0 + 0.5 * np.cos(2 * np.pi * xs)
    pos = xs[acc][:, None]
    while pos.shape[0] < n:
        more = rng.random(n)
        keep = rng.random(n) * 1.5 <= 1.0 + 0.5 * np.cos(2 * np.pi * more)
        pos = np.concatenate([pos, more[keep][:, None]])
    pos = pos[:n]
    ens = ParticleEnsemble(pos, rng.standard_normal((n, 1)),
                           np.full(n, 1.0 / n), 1.0)
    block = PathBlock([path])
    for _ in range(int(round(t_final / dt))):
        ens = step_micro(ens, block, dt, rng, LB)
    observed = float(np.mean(np.cos(2 * np.pi * ens.positions[:, 0])))
    assert observed == pytest.approx(target, abs=0.01)
