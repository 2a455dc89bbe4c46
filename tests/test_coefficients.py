import numpy as np
import pytest

from kinlim.coefficients import (check_sympos_identity,
                                 closed_form_two_point_diffusion,
                                 coefficients_from_csv, coefficients_to_csv,
                                 compute_coefficients, compute_cov_operator,
                                 spectrum_from_csv, spectrum_to_csv,
                                 verify_enhancement)
from kinlim.equilibrium import FP, LB
from kinlim.forcing import two_point_renewal, zero_renewal
from kinlim.torus import TorusField, TorusGrid

A = 0.5


@pytest.fixture
def grid():
    return TorusGrid(1, 64)


@pytest.fixture
def model(grid):
    return two_point_renewal(grid, A)


def test_zero_law_coefficients(grid):
    m = zero_renewal(grid)
    coeffs = compute_coefficients(m, LB, grid, n_mc=128, seed=1)
    assert np.max(np.abs(coeffs.diffusion.values[0, 0] - 1.0)) < 1e-12
    assert np.max(np.abs(coeffs.drift.values)) < 1e-12


def test_two_point_diffusion_closed_forms(grid, model):
    xs = grid.axis()
    for collision, coef in ((LB, 1.5), (FP, 1.0)):
        coeffs = compute_coefficients(model, collision, grid, n_mc=200, seed=2)
        expected = 1.0 + coef * A**2 * np.cos(2 * np.pi * xs) ** 2
        tol = 3 * coeffs.diffusion_stderr[0, 0] + 1e-10
        assert np.all(np.abs(coeffs.diffusion.values[0, 0] - expected) <= tol)
        oracle = closed_form_two_point_diffusion(A, 1, collision, grid)
        assert np.max(np.abs(coeffs.diffusion.values - oracle.values)) < 1e-10


def test_two_point_drift_closed_form(grid, model):
    # Theta = (b/2) d/dx [a^2 cos^2] + (1/2) a^2 cos * d/dx cos
    xs = grid.axis()
    c = np.cos(2 * np.pi * xs)
    s = np.sin(2 * np.pi * xs)
    for collision, b in ((LB, 2.0), (FP, 1.0)):
        coeffs = compute_coefficients(model, collision, grid, n_mc=150, seed=3)
        expected = (b / 2) * A**2 * 2 * c * (-2 * np.pi * s) \
            + 0.5 * A**2 * c * (-2 * np.pi * s)
        tol = 3 * np.max(coeffs.drift_stderr) + 1e-8
        assert np.max(np.abs(coeffs.drift.values[0] - expected)) <= tol


def test_cov_operator_zero_law(grid):
    cov = compute_cov_operator(zero_renewal(grid), grid, n_mc=128, seed=4)
    assert cov.rank == 0
    assert cov.trace == pytest.approx(0.0, abs=1e-15)


def test_cov_operator_rank_one_spectrum(grid, model):
    cov = compute_cov_operator(model, grid, n_mc=200, seed=5)
    # H(x, y) = a^2 cos(2 pi x) cos(2 pi y): rank one, lambda = a^2/2
    assert cov.rank == 1
    assert cov.eigenvalues[0] == pytest.approx(A**2 / 2, rel=1e-10)
    z = cov.eigenfields[0].values[0]
    target = np.sqrt(2) * np.cos(2 * np.pi * grid.axis())
    corr = abs(np.dot(z, target)) / (np.linalg.norm(z) * np.linalg.norm(target))
    assert corr > 0.999
    assert cov.trace == pytest.approx(A**2 / 2, rel=1e-10)
    assert cov.trace <= grid.dim * model.norm_bound


def test_cov_operator_symmetry_and_psd(grid, model):
    cov = compute_cov_operator(model, grid, n_mc=150, seed=6)
    assert np.max(np.abs(cov.kernel - cov.kernel.T)) < 1e-10
    op = cov.kernel / grid.size
    eigs = np.linalg.eigvalsh(op)
    assert eigs.min() >= -cov.tol_eig


def test_eigenfield_orthonormality(grid):
    # three-atom law gives a rank-two kernel
    def comp1(x):
        out = np.zeros((1,) + x.shape)
        out[0] = A * np.cos(2 * np.pi * x)
        return out

    def comp2(x):
        out = np.zeros((1,) + x.shape)
        out[0] = 0.3 * np.sin(4 * np.pi * x)
        return out

    from kinlim.forcing import ForceFieldModel
    a1 = TorusField.from_function(grid, 1, comp1)
    a2 = TorusField.from_function(grid, 1, comp2)
    m = ForceFieldModel("renewal", grid,
                        atoms=[a1, -1.0 * a1, a2, -1.0 * a2])
    cov = compute_cov_operator(m, grid, n_mc=4000, seed=7)
    assert cov.rank == 2
    for i, zi in enumerate(cov.eigenfields):
        for j, zj in enumerate(cov.eigenfields):
            gram = np.sum(zi.physical() * zj.physical()) / grid.size
            assert gram == pytest.approx(float(i == j), abs=1e-10)


def test_kernel_reconstruction(grid):
    from kinlim.forcing import ForceFieldModel

    def comp1(x):
        out = np.zeros((1,) + x.shape)
        out[0] = A * np.cos(2 * np.pi * x)
        return out

    def comp2(x):
        out = np.zeros((1,) + x.shape)
        out[0] = 0.3 * np.sin(4 * np.pi * x)
        return out

    a1 = TorusField.from_function(grid, 1, comp1)
    a2 = TorusField.from_function(grid, 1, comp2)
    m = ForceFieldModel("renewal", grid,
                        atoms=[a1, -1.0 * a1, a2, -1.0 * a2])
    cov = compute_cov_operator(m, grid, n_mc=2000, seed=8)
    recon = np.zeros_like(cov.kernel)
    for lam, z in zip(cov.eigenvalues, cov.eigenfields):
        flat = z.physical().reshape(-1)
        recon += lam * np.outer(flat, flat)
    gap = np.max(np.abs(recon - cov.kernel))
    # reconstruction off by at most round-off plus the dropped tail
    assert gap <= 1e-8 * max(cov.trace, 1.0) + cov.dropped_tail * grid.size


def test_enhancement_report(grid, model):
    for collision in (LB, FP):
        coeffs = compute_coefficients(model, collision, grid, n_mc=150, seed=12)
        cov = compute_cov_operator(model, grid, n_mc=150, seed=13)
        rep = verify_enhancement(coeffs, cov)
        assert rep.passed
        assert rep.min_eig_over_base >= -rep.tolerance
        assert rep.min_eig_over_noise >= -rep.tolerance
        if collision == FP:
            # Stratonovich diffusion degenerates to the identity exactly
            eye_dev = rep.strato_diffusion.values[0, 0] - 1.0
            assert np.max(np.abs(eye_dev)) < 1e-12


def test_enhancement_zero_law(grid):
    m = zero_renewal(grid)
    coeffs = compute_coefficients(m, LB, grid, n_mc=128, seed=14)
    cov = compute_cov_operator(m, grid, n_mc=128, seed=15)
    rep = verify_enhancement(coeffs, cov)
    assert rep.passed
    assert rep.min_eig_over_base == pytest.approx(0.0, abs=1e-12)
    assert rep.consistency_gap == pytest.approx(0.0, abs=1e-12)


def test_enhancement_detects_mismatched_collision(grid, model):
    # coefficients computed for velocity-diffusion collisions but relabelled
    # as jump collisions break the Ito/Stratonovich consistency split
    coeffs = compute_coefficients(model, FP, grid, n_mc=150, seed=16)
    cov = compute_cov_operator(model, grid, n_mc=150, seed=17)
    coeffs.collision_factor = 2.0   # deliberate mislabel
    rep = verify_enhancement(coeffs, cov)
    assert not rep.passed


def test_sympos_identity(model):
    rep = check_sympos_identity(model, delta=1.0, n_paths=3000, n_mc=500,
                                seed=18)
    assert rep.max_sigma_distance < 3.0
    # two-point enumeration: (e/2) (x)sym e = e (x) e, so the left side is
    # exactly a^2 cos^2(2 pi x) at each point
    expected = (A * np.cos(2 * np.pi * 0.1)) ** 2
    assert rep.lhs[1, 0, 0] == pytest.approx(expected, rel=1e-10)


def test_scaling_covariance(grid):
    # doubling the amplitude scales the kernel by 4 and K - Id by 4
    m1 = two_point_renewal(grid, A)
    m2 = two_point_renewal(grid, 2 * A)
    c1 = compute_coefficients(m1, LB, grid, n_mc=150, seed=19)
    c2 = compute_coefficients(m2, LB, grid, n_mc=150, seed=19)
    d1 = c1.diffusion.values[0, 0] - 1.0
    d2 = c2.diffusion.values[0, 0] - 1.0
    assert np.max(np.abs(d2 - 4.0 * d1)) < 1e-10
    k1 = compute_cov_operator(m1, grid, n_mc=150, seed=20)
    k2 = compute_cov_operator(m2, grid, n_mc=150, seed=20)
    assert k2.eigenvalues[0] == pytest.approx(4 * k1.eigenvalues[0], rel=1e-10)
    th1 = c1.drift.values[0]
    th2 = c2.drift.values[0]
    assert np.max(np.abs(th2 - 4.0 * th1)) < 1e-8


def test_n_mc_validation(grid, model):
    with pytest.raises(ValueError):
        compute_coefficients(model, LB, grid, n_mc=10, seed=0)
    with pytest.raises(ValueError):
        compute_cov_operator(model, grid, n_mc=10, seed=0)


def test_kernel_dimension_guard(model):
    big = TorusGrid(2, 64)
    with pytest.raises(ValueError):
        compute_cov_operator(model, big, n_mc=128, seed=0)


def test_csv_round_trip(tmp_path, grid, model):
    coeffs = compute_coefficients(model, LB, grid, n_mc=150, seed=21)
    cov = compute_cov_operator(model, grid, n_mc=150, seed=22)
    cpath = tmp_path / "coeffs.csv"
    spath = tmp_path / "spectrum.csv"
    coefficients_to_csv(coeffs, cpath)
    spectrum_to_csv(cov, spath)
    c2 = coefficients_from_csv(cpath)
    k2 = spectrum_from_csv(spath)
    assert np.max(np.abs(c2.diffusion.values - coeffs.diffusion.values)) < 1e-12
    assert np.max(np.abs(c2.drift.values - coeffs.drift.values)) < 1e-12
    assert c2.collision == LB and c2.collision_factor == 2.0
    assert np.allclose(k2.eigenvalues, cov.eigenvalues)
    assert np.max(np.abs(k2.eigenfields[0].values
                         - cov.eigenfields[0].values)) < 1e-12
    assert k2.trace == pytest.approx(cov.trace)


def test_contract_files_give_back_the_computed_doubles(tmp_path, model):
    # coefficients.csv and spectrum.csv hold every double exactly, so the
    # SPDE stages read the coefficients the coeffs stage computed
    grid = model.grid
    coeffs = compute_coefficients(model, LB, grid, n_mc=150, seed=23)
    cov = compute_cov_operator(model, grid, n_mc=150, seed=24)
    coefficients_to_csv(coeffs, tmp_path / "coefficients.csv")
    spectrum_to_csv(cov, tmp_path / "spectrum.csv")
    c2 = coefficients_from_csv(tmp_path / "coefficients.csv")
    k2 = spectrum_from_csv(tmp_path / "spectrum.csv")
    for name in ("diffusion", "drift", "r1_sym"):
        assert np.array_equal(getattr(c2, name).values,
                              getattr(coeffs, name).values)
    assert np.array_equal(k2.eigenvalues, cov.eigenvalues)
    assert np.array_equal(np.array([z.values for z in k2.eigenfields]),
                          np.array([z.values for z in cov.eigenfields]))
    assert (k2.trace, k2.dropped_tail, k2.tol_eig, k2.kernel_stderr) == \
        (cov.trace, cov.dropped_tail, cov.tol_eig, cov.kernel_stderr)
