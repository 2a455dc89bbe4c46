import numpy as np
import pytest

from kinlim.equilibrium import (FP, LB, gaussian_identities_check,
                                invariant_solution, maxwellian,
                                path_weighted_integral, profile_moments)
from kinlim.forcing import (constant_two_point_renewal, generate_path,
                            two_point_renewal, zero_renewal)
from kinlim.rng import substream
from kinlim.torus import TorusGrid

A = 0.5
VGRID = np.linspace(-8.0, 8.0, 513)


@pytest.fixture
def grid():
    return TorusGrid(1, 64)


def stationary_past_path(model, t_trunc, seed):
    return generate_path(model, t_trunc, seed=seed, t_start=-t_trunc)


# -- Gaussian identities -------------------------------------------------------


def test_gaussian_identities_trivial():
    rep = gaussian_identities_check([0.0], [0.0])
    assert rep.weighted_norm_sq == pytest.approx(1.0, rel=1e-9)
    assert rep.cross_norm_sq == pytest.approx(0.0, abs=1e-9)
    assert rep.l1_mass == pytest.approx(1.0, rel=1e-9)
    assert rep.l1_distance == pytest.approx(0.0, abs=1e-9)


def test_gaussian_identities_unit_shift():
    rep = gaussian_identities_check([1.0], [0.0])
    # squared weighted distance e + 1 - 2
    assert rep.cross_norm_sq == pytest.approx(np.e - 1.0, rel=1e-8)
    assert rep.weighted_norm_sq == pytest.approx(np.e, rel=1e-8)


def test_gaussian_identities_l1_bound_half_shift():
    rep = gaussian_identities_check([0.5], [0.0])
    assert rep.l1_bound == pytest.approx(1.0, rel=1e-12)
    assert rep.l1_distance <= 1.0
    assert rep.l1_bound_holds


def test_gaussian_identities_dim2():
    rep = gaussian_identities_check([0.7, -0.3], [0.2, 0.4], tol=1e-9)
    assert rep.max_rel_error < 1e-6
    assert rep.l1_bound_holds


def test_gaussian_identities_preconditions():
    with pytest.raises(ValueError):
        gaussian_identities_check([6.0], [0.0])
    with pytest.raises(ValueError):
        gaussian_identities_check([1.0, 0.0], [0.0])


# -- invariant profiles ----------------------------------------------------------


def test_invariant_profile_zero_force_is_maxwellian(grid):
    model = zero_renewal(grid)
    path = stationary_past_path(model, 20.0, seed=1)
    x = np.array([[0.0]])
    for collision in (LB, FP):
        prof = invariant_solution(path, collision, x, VGRID)
        exact = maxwellian(VGRID[:, None])
        exact /= exact.sum() * (VGRID[1] - VGRID[0])
        assert np.max(np.abs(prof - exact)) < 1e-12


def test_invariant_profile_truncation_precondition(grid):
    model = two_point_renewal(grid, A)
    path = stationary_past_path(model, 3.0, seed=2)
    with pytest.raises(ValueError):
        invariant_solution(path, LB, np.array([[0.0]]), VGRID)


def test_invariant_first_moment_matches_path_integral(grid):
    # first moment of the profile equals integral exp(s) E(s, x) ds
    model = two_point_renewal(grid, A)
    x = np.array([[0.1]])
    for seed in (3, 4):
        path = stationary_past_path(model, 20.0, seed=seed)
        drift = path_weighted_integral(path, x, 1.0, path.t_start, 0.0)[0]
        for collision in (LB, FP):
            prof = invariant_solution(path, collision, x, VGRID)
            _, mean, _ = profile_moments(prof, VGRID)
            assert np.max(np.abs(mean - drift)) < 1e-6


def test_invariant_second_moment_enumeration(grid):
    # E[K(M0)] = 1 + (b/2) a^2 cos^2(2 pi x) for the two-point law,
    # from the renewal closed form R1(e) = e/2; b = 2 (jump), 1 (diffusion)
    model = two_point_renewal(grid, A)
    x_val = 0.2
    x = np.array([[x_val]])
    n_paths = 800
    for collision, b in ((LB, 2.0), (FP, 1.0)):
        second = np.empty(n_paths)
        for p in range(n_paths):
            path = stationary_past_path(model, 20.0, seed=substream(50, p))
            prof = invariant_solution(path, collision, x, VGRID)
            _, _, k = profile_moments(prof, VGRID)
            second[p] = k[0, 0]
        expected = 1.0 + (b / 2) * (A * np.cos(2 * np.pi * x_val)) ** 2
        se = second.std(ddof=1) / np.sqrt(n_paths)
        assert abs(second.mean() - expected) < 3 * se


def test_path_weighted_integral_exactness(grid):
    # against brute-force Riemann sum on a fine mesh
    model = constant_two_point_renewal(grid, A)
    path = stationary_past_path(model, 10.0, seed=7)
    x = np.array([[0.0]])
    exact = path_weighted_integral(path, x, 1.0, -10.0, 0.0)[0, 0]
    ts = np.linspace(-10.0, 0.0, 200_001)
    mid = 0.5 * (ts[:-1] + ts[1:])
    dt = ts[1] - ts[0]
    vals = np.array([path.value_at(t).field.eval_at(x)[0, 0] for t in
                     mid[::400]])
    # coarse check only at subsampled midpoints (Riemann with step 400*dt)
    riemann = np.sum(np.exp(mid[::400]) * vals) * dt * 400
    assert exact == pytest.approx(riemann, abs=5e-3)
