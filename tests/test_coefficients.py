import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kinlim.coefficients import (check_sympos_identity,
                                 closed_form_two_point_diffusion,
                                 coefficients_from_csv, coefficients_to_csv,
                                 compute_coefficients, compute_cov_operator,
                                 draw_stationary, spectrum_from_csv,
                                 spectrum_to_csv, verify_enhancement)
from kinlim.config import ExperimentConfig, file_checksum
from kinlim.equilibrium import FP, LB
from kinlim.forcing import (ForceFieldModel, ou_single_mode,
                            two_point_renewal, zero_renewal)
from kinlim.torus import TorusField, TorusGrid

A = 0.5
ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture
def grid():
    return TorusGrid(1, 64)


@pytest.fixture
def model(grid):
    return two_point_renewal(grid, A)


def test_zero_law_coefficients(grid):
    m = zero_renewal(grid)
    coeffs = compute_coefficients(draw_stationary(m, grid, 128, seed=1), LB)
    assert np.max(np.abs(coeffs.diffusion.values[0, 0] - 1.0)) < 1e-12
    assert np.max(np.abs(coeffs.drift.values)) < 1e-12


def test_two_point_diffusion_closed_forms(grid, model):
    xs = grid.axis()
    draws = draw_stationary(model, grid, 200, seed=2)
    for collision, coef in ((LB, 1.5), (FP, 1.0)):
        coeffs = compute_coefficients(draws, collision)
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
    draws = draw_stationary(model, grid, 150, seed=3)
    for collision, b in ((LB, 2.0), (FP, 1.0)):
        coeffs = compute_coefficients(draws, collision)
        expected = (b / 2) * A**2 * 2 * c * (-2 * np.pi * s) \
            + 0.5 * A**2 * c * (-2 * np.pi * s)
        tol = 3 * np.max(coeffs.drift_stderr) + 1e-8
        assert np.max(np.abs(coeffs.drift.values[0] - expected)) <= tol


def test_cov_operator_zero_law(grid):
    m = zero_renewal(grid)
    cov = compute_cov_operator(draw_stationary(m, grid, 128, seed=4))
    assert cov.rank == 0
    assert cov.trace == pytest.approx(0.0, abs=1e-15)


def test_cov_operator_rank_one_spectrum(grid, model):
    cov = compute_cov_operator(draw_stationary(model, grid, 200, seed=5))
    # H(x, y) = a^2 cos(2 pi x) cos(2 pi y): rank one, lambda = a^2/2
    assert cov.rank == 1
    assert cov.eigenvalues[0] == pytest.approx(A**2 / 2, rel=1e-10)
    z = cov.eigenfields[0].values[0]
    target = np.sqrt(2) * np.cos(2 * np.pi * grid.axis())
    corr = abs(np.dot(z, target)) / (np.linalg.norm(z) * np.linalg.norm(target))
    assert corr > 0.999
    assert cov.trace == pytest.approx(A**2 / 2, rel=1e-10)
    assert cov.trace <= grid.dim * model.norm_bound


def test_cov_operator_symmetry_and_psd():
    # the recorded smallest eigenvalue is the dense one: 1-D m=64, and 2-D
    # m=16 with QR width 2 n_mc = 400 < 512, where the estimate is zero off
    # the QR basis
    one, two = TorusGrid(1, 64), TorusGrid(2, 16)
    for model, n_mc in ((two_point_renewal(one, A), 150),
                        (three_atom_law(two), 200)):
        grid = model.grid
        cov = compute_cov_operator(draw_stationary(model, grid, n_mc, seed=6))
        assert np.max(np.abs(cov.kernel - cov.kernel.T)) < 1e-10
        assert cov.symmetry_gap < 1e-10
        eigs = np.linalg.eigvalsh(cov.kernel / grid.size)
        assert eigs.min() >= -cov.tol_eig
        assert cov.min_eigenvalue == pytest.approx(eigs.min(), abs=1e-12)


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
    cov = compute_cov_operator(draw_stationary(m, grid, 4000, seed=7))
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
    cov = compute_cov_operator(draw_stationary(m, grid, 2000, seed=8))
    recon = np.zeros_like(cov.kernel)
    for lam, z in zip(cov.eigenvalues, cov.eigenfields):
        flat = z.physical().reshape(-1)
        recon += lam * np.outer(flat, flat)
    gap = np.max(np.abs(recon - cov.kernel))
    # reconstruction off by at most round-off plus the dropped tail
    assert gap <= 1e-8 * max(cov.trace, 1.0) + cov.dropped_tail * grid.size


def test_enhancement_report(grid, model):
    draws = draw_stationary(model, grid, 150, seed=12)
    cov = compute_cov_operator(draw_stationary(model, grid, 150, seed=13))
    for collision in (LB, FP):
        coeffs = compute_coefficients(draws, collision)
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
    coeffs = compute_coefficients(draw_stationary(m, grid, 128, seed=14), LB)
    cov = compute_cov_operator(draw_stationary(m, grid, 128, seed=15))
    rep = verify_enhancement(coeffs, cov)
    assert rep.passed
    assert rep.min_eig_over_base == pytest.approx(0.0, abs=1e-12)
    assert rep.consistency_gap == pytest.approx(0.0, abs=1e-12)


def test_enhancement_detects_mismatched_collision(grid, model):
    # coefficients computed for velocity-diffusion collisions but relabelled
    # as jump collisions break the Ito/Stratonovich consistency split
    coeffs = compute_coefficients(
        draw_stationary(model, grid, 150, seed=16), FP)
    cov = compute_cov_operator(draw_stationary(model, grid, 150, seed=17))
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
    c1 = compute_coefficients(draw_stationary(m1, grid, 150, seed=19), LB)
    c2 = compute_coefficients(draw_stationary(m2, grid, 150, seed=19), LB)
    d1 = c1.diffusion.values[0, 0] - 1.0
    d2 = c2.diffusion.values[0, 0] - 1.0
    assert np.max(np.abs(d2 - 4.0 * d1)) < 1e-10
    k1 = compute_cov_operator(draw_stationary(m1, grid, 150, seed=20))
    k2 = compute_cov_operator(draw_stationary(m2, grid, 150, seed=20))
    assert k2.eigenvalues[0] == pytest.approx(4 * k1.eigenvalues[0], rel=1e-10)
    th1 = c1.drift.values[0]
    th2 = c2.drift.values[0]
    assert np.max(np.abs(th2 - 4.0 * th1)) < 1e-8


def test_n_mc_validation(grid, model):
    with pytest.raises(ValueError):
        draw_stationary(model, grid, 10, seed=0)


def test_csv_round_trip(tmp_path, grid, model):
    coeffs = compute_coefficients(
        draw_stationary(model, grid, 150, seed=21), LB)
    cov = compute_cov_operator(draw_stationary(model, grid, 150, seed=22))
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
    coeffs = compute_coefficients(
        draw_stationary(model, grid, 150, seed=23), LB)
    cov = compute_cov_operator(draw_stationary(model, grid, 150, seed=24))
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


# -- low-rank covariance against the dense estimate ---------------------------


def dense_reference(draws, grid):
    """The dense estimate: per-draw symmetrised outer products accumulated
    into (dim, dim) arrays, their per-entry standard errors, and a full
    symmetric eigendecomposition of the weighted kernel."""
    n = draws.n_mc
    dim = grid.dim * grid.size
    acc = np.zeros((dim, dim))
    acc_sq = np.zeros((dim, dim))
    for r, e in zip(draws.r0.reshape(n, dim), draws.e.reshape(n, dim)):
        outer = np.outer(r, e)
        outer = 0.5 * (outer + outer.T)
        acc += outer
        acc_sq += outer**2
    kernel = acc / n
    var = np.maximum(acc_sq / n - kernel**2, 0.0) * n / (n - 1)
    se_fro = float(np.sqrt(np.sum(var / n))) / grid.size
    eigvals, eigvecs = np.linalg.eigh(kernel / grid.size)
    return kernel, se_fro, eigvals[::-1], eigvecs[:, ::-1]


def three_atom_law(grid):
    """Atoms a1, a2 and -(a1 + a2): a centred law with a rank-two kernel."""
    x = grid.coords()[0]
    a1 = np.zeros((grid.dim,) + grid.shape)
    a2 = np.zeros_like(a1)
    a1[0] = A * np.cos(2 * np.pi * x)
    a2[-1] = A * np.sin(4 * np.pi * x)
    fields = [TorusField(grid, 1, v) for v in (a1, a2, -(a1 + a2))]
    return ForceFieldModel("renewal", grid, atoms=fields)


@pytest.mark.parametrize("law", ["three-atom", "ou"])
def test_low_rank_matches_dense_reference(law):
    if law == "three-atom":    # 2-D m=16: QR width 2 n_mc = 400 < 512
        grid, n_mc = TorusGrid(2, 16), 200
        model = three_atom_law(grid)
    else:                      # 1-D m=16: QR width 16, every column
        grid, n_mc = TorusGrid(1, 16), 100
        model = ou_single_mode(grid, A, clip_radius=8.0)
    draws = draw_stationary(model, grid, n_mc, seed=9)
    cov = compute_cov_operator(draws)
    kernel, se_fro, eigvals, eigvecs = dense_reference(draws, grid)
    assert cov.qr_width == min(grid.dim * grid.size, 2 * n_mc)
    assert cov.rank == (2 if law == "three-atom" else 1)
    assert np.allclose(cov.eigenvalues, eigvals[:cov.rank], rtol=1e-12,
                       atol=0)
    for k, z in enumerate(cov.eigenfields):
        unit = z.physical().reshape(-1) / np.sqrt(grid.size)
        assert abs(abs(unit @ eigvecs[:, k]) - 1.0) < 1e-10
    assert np.max(np.abs(cov.kernel - kernel)) < 1e-14 * np.max(kernel)
    if law == "ou":
        assert cov.kernel_stderr == pytest.approx(se_fro, rel=1e-10)


def test_eigenfield_sign_rule(grid, model):
    # the first value above 1e-8 of the largest is positive: +sqrt(2) cos
    cov = compute_cov_operator(draw_stationary(model, grid, 100, seed=5))
    z = cov.eigenfields[0].values[0]
    target = np.sqrt(2) * np.cos(2 * np.pi * grid.axis())
    assert np.max(np.abs(z - target)) < 1e-12
    three = three_atom_law(grid)
    for z in compute_cov_operator(
        draw_stationary(three, grid, 100, seed=5)).eigenfields:
        flat = z.physical().reshape(-1)
        assert flat[np.argmax(np.abs(flat) > 1e-8 * np.abs(flat).max())] > 0


def test_rank_deficient_kernel_keeps_dense_accuracy():
    # 2-D m=16, QR width 200, kernel rank one: the QR's round-off rows of T
    # (about 1e-14) are cut before the small eigenproblem, so the eigenfield
    # is as close to sqrt(2) cos(2 pi x0) as the dense eigh got (2.4e-15);
    # kept, they moved it by 2.6e-14
    grid = TorusGrid(2, 16)
    model = two_point_renewal(grid, A)
    cov = compute_cov_operator(draw_stationary(model, grid, 100, seed=1))
    assert cov.qr_width == 200 and cov.rank == 1
    assert cov.eigenvalues[0] == pytest.approx(A**2 / 2, rel=1e-14)
    target = np.zeros((2,) + grid.shape)
    target[0] = np.sqrt(2) * np.cos(2 * np.pi * grid.coords()[0])
    assert np.max(np.abs(cov.eigenfields[0].values - target)) < 5e-15


def test_cov_operator_holds_no_dense_kernel():
    # 2-D m=16: the dense estimate held two 512 x 512 accumulators and an
    # eigh of a third (16.8 MB); the thin QR needs a few (512, 200) arrays
    grid = TorusGrid(2, 16)
    model = two_point_renewal(grid, A)
    tracemalloc.start()
    try:
        cov = compute_cov_operator(draw_stationary(model, grid, 100, seed=1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cov.rank == 1
    assert peak < 8e6


def test_cov_operator_2d_m32_below_half_a_dense_kernel():
    # 2-D m=32: one dense 2048 x 2048 kernel is 33.6 MB
    grid = TorusGrid(2, 32)
    model = two_point_renewal(grid, A)
    draws = draw_stationary(model, grid, 100, seed=1)
    tracemalloc.start()
    try:
        cov = compute_cov_operator(draws)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cov.rank == 1
    assert cov.eigenvalues[0] == pytest.approx(A**2 / 2, abs=1e-12)
    assert peak < 2048**2 * 8 / 2


def test_spectrum_does_not_depend_on_blas_threads(tmp_path):
    digests = []
    for threads in ("1", "2"):
        out = tmp_path / f"threads{threads}"
        config = tmp_path / f"threads{threads}.cfg"
        ExperimentConfig(dim=2, grid_m=16, n_mc=100, seed=1,
                         out_dir=str(out)).save(config)
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-m", "kinlim", "coeffs",
                               "--config", str(config)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        digests.append(file_checksum(out / "spectrum.csv"))
    assert digests[0] == digests[1]
