import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_dim2_and_ou import two_point_2d

from kinlim import spde
from kinlim.coefficients import (CovOperator, compute_coefficients,
                                 compute_cov_operator, draw_stationary,
                                 HydroCoefficients)
from kinlim.equilibrium import FP, LB
from kinlim.experiment import default_initial_density, default_test_functions
from kinlim.forcing import two_point_renewal, zero_renewal
from kinlim.spde import (ITO, STRATONOVICH, SpdeStepper, _full_spectrum,
                         _half_spectrum, mean_equation_solve,
                         quadratic_variation_check, run_ensemble,
                         stability_limit)
from kinlim.torus import (TorusField, TorusGrid, divergence,
                          significant_modes, sobolev_norm)

A = 0.5


@pytest.fixture
def grid():
    return TorusGrid(1, 64)


def identity_coeffs(grid):
    m = zero_renewal(grid)
    return compute_coefficients(draw_stationary(m, grid), LB)


def lb_setup(grid):
    draws = draw_stationary(two_point_renewal(grid, A), grid)
    return compute_coefficients(draws, LB), compute_cov_operator(draws)


def rho_one_plus_cos(grid):
    return TorusField.from_function(
        grid, 0, lambda x: 1.0 + np.cos(2 * np.pi * x))


def test_heat_equation_oracle(grid):
    # K = Id, no noise: mode 1 decays like exp(-4 pi^2 t)
    coeffs = identity_coeffs(grid)
    rho0 = rho_one_plus_cos(grid)
    t, dt = 0.05, 1e-5
    out = mean_equation_solve(coeffs, rho0, t, dt)
    coef = out.spectrum()
    expected = 0.5 * np.exp(-4 * np.pi**2 * t)
    assert abs(coef[1] - expected) / expected < 1e-4
    assert coef[0].real == pytest.approx(1.0, abs=1e-12)


def test_stability_guard(grid):
    coeffs = identity_coeffs(grid)
    limit = stability_limit(coeffs)
    with pytest.raises(ValueError):
        SpdeStepper(coeffs, None, 2 * limit)


def test_horizon_must_be_a_whole_number_of_steps():
    # 0.001 / 3e-5 = 33.3 steps once ended at t = 0.00099, and 1e-5 took no
    # step at all; both are refused by every SPDE entry point
    grid = TorusGrid(1, 16)
    coeffs, cov = lb_setup(grid)
    rho0 = rho_one_plus_cos(grid)
    xi = TorusField.from_function(grid, 0, lambda x: np.sin(2 * np.pi * x))
    for horizon in (0.001, 1e-5):
        for call in (
                lambda: run_ensemble(coeffs, cov, rho0, horizon, 3e-5, 2,
                                     seed=1),
                lambda: mean_equation_solve(coeffs, rho0, horizon, 3e-5),
                lambda: quadratic_variation_check(coeffs, cov, rho0, xi,
                                                  horizon, 3e-5, 2, seed=1)):
            with pytest.raises(ValueError, match="whole number of steps"):
                call()
    # 0.0009 / 3e-5 is 30 up to rounding: accepted, ends at the horizon
    res = run_ensemble(coeffs, cov, rho0, 0.0009, 3e-5, 2, seed=1)
    assert res.n_steps == 30
    assert res.times[-1] == pytest.approx(0.0009, rel=1e-12)


def test_mass_conservation_and_zero_datum(grid):
    coeffs, cov = lb_setup(grid)
    rho0 = rho_one_plus_cos(grid)
    res = run_ensemble(coeffs, cov, rho0, 0.01, 1e-5, 8, seed=4,
                       xi_fields=[TorusField.constant(grid, 1.0)])
    # mass functional is the point mass at <rho_in, 1> for every realization
    assert np.max(np.abs(res.samples[-1][:, 0] - 1.0)) < 1e-10
    zero = TorusField.zeros(grid, 0)
    res0 = run_ensemble(coeffs, cov, zero, 0.005, 1e-5, 4, seed=5)
    assert np.max(np.abs(res0.mean_hat[-1])) == 0.0


def test_linearity_under_shared_noise(grid):
    coeffs, cov = lb_setup(grid)
    rho_a = rho_one_plus_cos(grid)
    rho_b = TorusField.from_function(
        grid, 0, lambda x: 0.5 + 0.25 * np.sin(4 * np.pi * x))
    alpha, beta = 0.7, -1.3
    combo = alpha * rho_a + beta * rho_b
    kw = dict(horizon=0.01, dt=1e-5, n_realizations=4, seed=6)
    ra = run_ensemble(coeffs, cov, rho_a, **kw)
    rb = run_ensemble(coeffs, cov, rho_b, **kw)
    rc = run_ensemble(coeffs, cov, combo, **kw)
    lhs = rc.mean_hat[-1]
    rhs = alpha * ra.mean_hat[-1] + beta * rb.mean_hat[-1]
    assert np.max(np.abs(lhs - rhs)) < 1e-10


def test_determinism_bit_identical(grid):
    coeffs, cov = lb_setup(grid)
    rho0 = rho_one_plus_cos(grid)
    kw = dict(horizon=0.01, dt=1e-5, n_realizations=6, seed=7)
    r1 = run_ensemble(coeffs, cov, rho0, **kw)
    r2 = run_ensemble(coeffs, cov, rho0, **kw)
    assert np.array_equal(r1.mean_hat, r2.mean_hat)
    assert np.array_equal(r1.samples, r2.samples)


def test_ensemble_mean_matches_deterministic_solve(grid):
    coeffs, cov = lb_setup(grid)
    rho0 = rho_one_plus_cos(grid)
    t, dt, n = 0.02, 1e-5, 128
    res = run_ensemble(coeffs, cov, rho0, t, dt, n, seed=9)
    det = mean_equation_solve(coeffs, rho0, t, dt)
    mean_field = res.mean_field(grid)
    dist = sobolev_norm(mean_field - det, -1.0)
    # aggregated H^-1 standard error of the ensemble mean
    weights = (1.0 + grid.laplace_symbol()) ** (-1.0)
    se = float(np.sqrt(np.sum(weights * res.var_hat[-1] / n)))
    assert dist < 4 * se


def test_variance_grows_for_coupled_functional(grid):
    coeffs, cov = lb_setup(grid)
    rho0 = TorusField.constant(grid, 1.0)
    xi = TorusField.from_function(grid, 0, lambda x: np.sin(2 * np.pi * x))
    # t well below the mode-1 relaxation time 1/(4 pi^2 Kbar) ~ 2e-3 so the
    # small-time expansion Var ~ 2 Q t applies
    t, dt, n = 0.001, 1e-5, 256
    res = run_ensemble(coeffs, cov, rho0, t, dt, n, seed=10, xi_fields=[xi],
                       n_checkpoints=4)
    var_t = res.samples[:, :, 0].var(axis=1)
    assert var_t[0] == pytest.approx(0.0, abs=1e-18)
    assert var_t[-1] > 0
    # rank-one enumeration: Q = <phi_1, rho grad xi>^2 = (a pi)^2
    q = (A * np.pi) ** 2
    assert var_t[-1] == pytest.approx(2 * q * t, rel=0.35)


def test_quadratic_variation_rank_one(grid):
    coeffs, cov = lb_setup(grid)
    rho0 = TorusField.constant(grid, 1.0)
    xi = TorusField.from_function(
        grid, 0, lambda x: np.sin(2 * np.pi * x) / (2 * np.pi))
    rep = quadratic_variation_check(coeffs, cov, rho0, xi, 0.005, 1e-5,
                                    n_realizations=256, seed=11)
    assert rep.mean_relative_gap < 0.10
    assert abs(rep.martingale_mean) < 3 * rep.martingale_se + 1e-12
    # hand enumeration: QV rate 2 ||S^1/2(cos e_x)||^2 = 2 (a^2/2)(1/2) = a^2/2
    rate = A**2 / 2
    assert rep.predicted.mean() == pytest.approx(rate * 0.005, rel=0.05)


def test_quadratic_variation_paths_are_run_ensemble_paths(grid):
    # the check steps the realizations run_ensemble steps for the same seed
    coeffs, cov = lb_setup(grid)
    rho0 = rho_one_plus_cos(grid)
    xi = TorusField.from_function(grid, 0, lambda x: np.sin(2 * np.pi * x))
    rep = quadratic_variation_check(coeffs, cov, rho0, xi, 0.001, 1e-5,
                                    n_realizations=6, seed=21)
    res = run_ensemble(coeffs, cov, rho0, 0.001, 1e-5, 6, seed=21,
                       xi_fields=[xi])
    assert np.array_equal(rep.final, res.samples[-1][:, 0])


def test_zero_noise_qv_trivial(grid):
    model = zero_renewal(grid)
    coeffs = compute_coefficients(draw_stationary(model, grid), LB)
    cov = compute_cov_operator(draw_stationary(model, grid))
    rho0 = rho_one_plus_cos(grid)
    xi = TorusField.from_function(grid, 0, lambda x: np.cos(2 * np.pi * x))
    rep = quadratic_variation_check(coeffs, cov, rho0, xi, 0.004, 1e-5,
                                    n_realizations=4, seed=14)
    assert np.max(rep.empirical) == 0.0
    assert np.max(rep.predicted) == 0.0


def test_stratonovich_matches_ito_in_mean(grid):
    coeffs, cov = lb_setup(grid)
    rho0 = rho_one_plus_cos(grid)
    t, dt, n = 0.02, 1e-5, 192
    ito = run_ensemble(coeffs, cov, rho0, t, dt, n, seed=15, scheme=ITO)
    strat = run_ensemble(coeffs, cov, rho0, t, dt, n, seed=16,
                         scheme=STRATONOVICH)
    for k in (1, 2):
        se = np.sqrt(ito.var_hat[-1][k] / n + strat.var_hat[-1][k] / n)
        gap = abs(ito.mean_hat[-1][k] - strat.mean_hat[-1][k])
        assert gap < 3 * se + 1e-12


def test_enhanced_decay_vs_identity(grid):
    # the two-point diffusion matrix exceeds Id, so mode-1 energy at a fixed
    # time is strictly smaller than the plain heat run (drift off for a clean
    # comparison of the diffusion operators)
    coeffs, _ = lb_setup(grid)
    base = identity_coeffs(grid)
    rho0 = rho_one_plus_cos(grid)
    t, dt = 0.05, 1e-5
    no_drift = replace(coeffs, drift=TorusField.zeros(grid, 1))
    enhanced = mean_equation_solve(no_drift, rho0, t, dt)
    plain = mean_equation_solve(base, rho0, t, dt)
    e1 = abs(enhanced.spectrum()[1])
    p1 = abs(plain.spectrum()[1])
    assert e1 < p1


def test_weak_order_halving(grid):
    # deterministic drift solve converges at first order: halving dt halves
    # the error against a fine-dt reference (the scheme's ensemble mean obeys
    # the same recursion, so this pins the weak order of the drift part)
    coeffs, _ = lb_setup(grid)
    rho0 = rho_one_plus_cos(grid)
    t = 0.02
    ref = mean_equation_solve(coeffs, rho0, t, 1.25e-6)
    errs = []
    for dt in (1e-5, 5e-6):
        out = mean_equation_solve(coeffs, rho0, t, dt)
        errs.append(sobolev_norm(out - ref, 0.0))
    ratio = errs[0] / errs[1]
    assert 1.4 < ratio < 2.6


class FullComplexStep:
    """The same scheme with full-complex FFTs and physical-space products
    (seven transforms per 2-D Ito step, drift and noise transformed apart):
    the reference of the stepper's shifted spectral products."""

    def __init__(self, coeffs, cov, dt, scheme):
        grid = coeffs.diffusion.grid
        self.axes = tuple(range(1, 1 + grid.dim))
        self.size, self.dt, self.scheme = grid.size, dt, scheme
        ks = grid.wavenumbers()
        # the stepper's symbol: odd derivatives vanish on |k_i| = m/2
        self.ik = [2j * np.pi * np.where(np.abs(k) == grid.m // 2, 0, k)
                   for k in ks]
        phis = cov.noise_fields()
        self.phi = [p.physical() for p in phis]
        diff, theta = coeffs.diffusion.physical(), coeffs.drift.physical()
        if scheme == STRATONOVICH:
            diff = diff - cov.noise_diagonal().physical()
            theta = theta - sum(p.physical() * divergence(p).physical()[None]
                                for p in phis)
        kbar = diff.reshape(grid.dim, grid.dim, -1).mean(axis=-1)
        kbar = 0.5 * (kbar + kbar.T)
        self.theta = theta
        self.kvar = diff - kbar.reshape(kbar.shape + (1,) * grid.dim)
        # the stepper's symbol: k_i^2, and cross terms k_i k_j obey the
        # Nyquist rule
        odd = [np.where(np.abs(k) == grid.m // 2, 0, k) for k in ks]
        mu = sum(4 * np.pi**2 * kbar[i, j]
                 * (ks[i] ** 2 if i == j else odd[i] * odd[j])
                 for i in range(grid.dim) for j in range(grid.dim))
        self.cn_minus = 1.0 - 0.5 * dt * mu
        self.cn_plus_inv = 1.0 / (1.0 + 0.5 * dt * mu)

    def phys(self, coef):
        return np.fft.ifftn(coef, axes=self.axes).real * self.size

    def div(self, comps):
        return sum(ik * np.fft.fftn(c, axes=self.axes) / self.size
                   for ik, c in zip(self.ik, comps))

    def noise(self, rho, g):
        gs = g.reshape(g.shape + (1,) * len(self.axes))
        return sum(self.div([rho * phi[i] * gs[:, k]
                             for i in range(len(self.axes))])
                   for k, phi in enumerate(self.phi))

    def step(self, coef, g):
        rho = self.phys(coef)
        grads = [self.phys(ik * coef) for ik in self.ik]
        det = self.cn_minus * coef + self.dt * self.div(
            [self.theta[i] * rho + sum(self.kvar[i, j] * grads[j]
                                       for j in range(len(grads)))
             for i in range(len(grads))])
        root = np.sqrt(2 * self.dt)
        noise0 = self.noise(rho, g)
        if self.scheme == ITO:
            return (det + root * noise0) * self.cn_plus_inv
        pred = (det + root * noise0) * self.cn_plus_inv
        noise1 = self.noise(self.phys(pred), g)
        return (det + root * 0.5 * (noise0 + noise1)) * self.cn_plus_inv


def rank_two_cov(grid):
    """Noise fields sqrt(2) cos(2 pi x) e_0 and sqrt(2) sin(2 pi (x + y)) e_1
    with eigenvalues 0.1 and 0.05: each axis has one zero noise component."""
    x, y = grid.coords()
    zetas = [np.stack([np.sqrt(2) * np.cos(2 * np.pi * x), 0 * x]),
             np.stack([0 * x, np.sqrt(2) * np.sin(2 * np.pi * (x + y))])]
    return CovOperator(grid, np.array([0.1, 0.05]),
                       [TorusField(grid, 1, z) for z in zetas], 0.15, 0.0,
                       0.0, 0.0)


def smooth_random(grid, rng, n_fields):
    """n_fields random real fields holding every mode |k_d| <= m/4 (smooth
    amplitudes) and a Nyquist cosine along the last axis, (n_fields, grid)."""
    k = np.stack(grid.wavenumbers())
    band = np.all(np.abs(k) <= grid.m // 4, axis=0)
    decay = np.exp(-np.sum(k**2, axis=0) / grid.m) * band
    out = []
    for _ in range(n_fields):
        coef = decay * (rng.standard_normal(grid.shape)
                        + 1j * rng.standard_normal(grid.shape))
        vals = np.fft.ifftn(coef).real * grid.size / np.sqrt(band.sum())
        out.append(vals + 0.1 * np.cos(np.pi * grid.m * grid.coords()[-1]))
    return np.array(out)


def many_mode_case(grid):
    """Random smooth K (positive definite, K01 = K10), Theta and two noise
    fields, every component non-zero: each field holds every mode
    |k_d| <= m/4 and a Nyquist mode, so shifts wrap through the Hermitian
    half along the last axis."""
    rng = np.random.default_rng(17)
    s00, s01, s11, t0, t1, z00, z01, z10, z11 = 0.1 * smooth_random(
        grid, rng, 9)
    eye = np.eye(grid.dim).reshape(2, 2, 1, 1)
    diff = TorusField(grid, 2, eye + np.array([[s00, s01], [s01, s11]]))
    drift = TorusField(grid, 1, 10 * np.array([t0, t1]))
    assert np.min(np.linalg.eigvalsh(
        np.moveaxis(diff.values, (0, 1), (-2, -1)))) > 0.5
    coeffs = HydroCoefficients(diff, drift, LB, 2.0, diff)
    zetas = [TorusField(grid, 1, np.array([z00, z01]) * 10),
             TorusField(grid, 1, np.array([z10, z11]) * 10)]
    return coeffs, CovOperator(grid, np.array([0.1, 0.05]), zetas, 0.15,
                               0.0, 0.0, 0.0)


def equivalence_case(name):
    if name == "1d":
        return lb_setup(TorusGrid(1, 64))
    if name == "many-mode":
        return many_mode_case(TorusGrid(2, 16))
    grid = TorusGrid(2, 16)
    if name == "2d-e0":       # the benchmark law: zero fields are dropped
        return lb_setup(grid)
    model = two_point_2d(grid, 0.4)
    coeffs = compute_coefficients(draw_stationary(model, grid), LB)
    if name == "2d-full":     # every component and K01 non-zero
        draws = draw_stationary(model, grid)
        return coeffs, compute_cov_operator(draws)
    return coeffs, rank_two_cov(grid)


@pytest.mark.parametrize("scheme", [ITO, STRATONOVICH])
@pytest.mark.parametrize("case", ["1d", "2d-e0", "2d-full", "rank-2",
                                  "many-mode"])
def test_fused_step_matches_full_complex_step(case, scheme):
    coeffs, cov = equivalence_case(case)
    grid = coeffs.diffusion.grid
    dt = 0.5 * stability_limit(coeffs)
    stepper = SpdeStepper(coeffs, cov, dt, scheme)
    oracle = FullComplexStep(coeffs, cov, dt, scheme)
    rho0 = TorusField.from_function(
        grid, 0, lambda *xs: 1.0 + 0.5 * np.cos(2 * np.pi * xs[0] - 1.0)
        + 0.3 * np.sin(2 * np.pi * xs[-1]))
    full = np.broadcast_to(rho0.spectrum(), (3,) + grid.shape).copy()
    half = full[..., :grid.m // 2 + 1].copy()
    g = np.random.default_rng(5).standard_normal((50, 3, stepper.noise_rank))
    for step in range(50):
        half = stepper.step_hat(half, g[step])
        full = oracle.step(full, g[step])
    ref = oracle.phys(full)
    scale = np.max(np.abs(ref))
    assert np.max(np.abs(stepper.to_physical(half) - ref)) <= 1e-12 * scale
    # the mass is the k = 0 coefficient, untouched to the bit
    assert np.all(half[(Ellipsis,) + (0,) * grid.dim]
                  == rho0.spectrum()[(0,) * grid.dim])


@pytest.mark.parametrize("case, scheme", [("1d", ITO), ("2d-e0", ITO),
                                          ("2d-full", ITO),
                                          ("1d", STRATONOVICH)],
                         ids=["1d", "2d-e0", "2d-full", "1d-stratonovich"])
def test_step_runs_no_transform_and_counts_products(case, scheme,
                                                    monkeypatch):
    coeffs, cov = equivalence_case(case)
    stepper = SpdeStepper(coeffs, cov, 1e-5, scheme)
    calls = []
    for name in ("to_physical", "to_spectral"):
        orig = getattr(SpdeStepper, name)

        def counted(self, arr, _orig=orig):
            calls.append(1)
            return _orig(self, arr)
        monkeypatch.setattr(SpdeStepper, name, counted)
    grid = coeffs.diffusion.grid
    coef = np.zeros((2, *grid.shape[:-1], grid.m // 2 + 1), dtype=complex)
    stepper.step_hat(coef, np.ones((2, stepper.noise_rank)))
    assert calls == []
    # one product per shift q at which Theta_i or K_ij off the mean keeps
    # a mode (their terms share one multiplier), and one per (i, q) that
    # any noise field phi_k,i holds
    def kept(field):
        flat = field.spectrum().reshape(-1, grid.size)
        return significant_modes(flat)[0].reshape(field.spectrum().shape)
    k_hat = kept(coeffs.diffusion)
    k_hat[(Ellipsis,) + (0,) * grid.dim] = 0
    noise = np.any([kept(phi) != 0 for phi in cov.noise_fields()], axis=0)
    if scheme == STRATONOVICH:
        # Theta - phi div phi and K - phi phi^T at +/- 2 e_0, phi at +/- e_0
        # in both Heun stages: no rounding mode of the near-cancelling
        # difference survives
        assert stepper.products_per_step == 6
        return
    shifts = np.any(kept(coeffs.drift) != 0, axis=0) | np.any(k_hat != 0,
                                                              axis=(0, 1))
    assert stepper.products_per_step == (np.count_nonzero(shifts)
                                         + np.count_nonzero(noise))
    if case != "2d-full":     # the two-point law: Theta, Kvar at +/- 2 e_0,
        assert stepper.products_per_step == 4     # phi at +/- e_0


@pytest.mark.parametrize("dim", [1, 2])
def test_full_spectrum_completes_the_half(dim):
    grid = TorusGrid(dim, 8)
    phys = np.random.default_rng(dim).standard_normal((3,) + grid.shape)
    axes = tuple(range(1, 1 + dim))
    full = np.fft.fftn(phys, axes=axes)
    out = _full_spectrum(_half_spectrum(full), grid)
    assert out.shape == full.shape
    assert np.max(np.abs(out - full)) < 1e-12
    # the added modes are the exact conjugates c(-k) = conj c(k) of kept ones
    back = np.conj(np.roll(np.flip(out, axes), 1, axes))
    assert np.array_equal(back[..., grid.m // 2 + 1:],
                          out[..., grid.m // 2 + 1:])


@pytest.mark.parametrize("case", ["1d", "2d-full"])
def test_blocked_stepping_is_bit_identical(case, monkeypatch):
    # 10 realizations in blocks of 3: four step_hat calls per step, the last
    # on one realization, against one call on all ten
    coeffs, cov = equivalence_case(case)
    grid = coeffs.diffusion.grid
    rho0 = TorusField.from_function(
        grid, 0, lambda *xs: 1.0 + 0.5 * np.cos(2 * np.pi * xs[0] - 1.0))
    xi = [TorusField.from_function(grid, 0, lambda *xs: np.sin(
        2 * np.pi * xs[0]) / (2 * np.pi))]
    dt = 0.5 * stability_limit(coeffs)
    runs = []
    for block_values in (10**9, 3 * grid.size):
        monkeypatch.setattr(spde, "BLOCK_VALUES", block_values)
        ens = run_ensemble(coeffs, cov, rho0, 20 * dt, dt, 10, seed=4,
                           xi_fields=xi, n_checkpoints=4)
        qv = quadratic_variation_check(coeffs, cov, rho0, xi[0], 20 * dt,
                                       dt, 10, seed=4)
        runs.append((ens, qv))
    (one, qv_one), (blocked, qv_blocked) = runs
    assert (one.blocks_per_step, one.block_realizations) == (1, 10)
    assert (blocked.blocks_per_step, blocked.block_realizations) == (4, 3)
    for name in ("times", "mean_hat", "var_hat", "samples", "min_rho"):
        assert np.array_equal(getattr(one, name), getattr(blocked, name))
    for name in ("empirical", "predicted", "final"):
        assert np.array_equal(getattr(qv_one, name), getattr(qv_blocked, name))


@pytest.mark.parametrize("scheme", [ITO, STRATONOVICH])
def test_cut_steps_are_the_half_spectrum_steps(scheme):
    # the two-point law moves only k_0, and the start is zero off k_1 = 0:
    # the states cut to (3, 16, 1) step the k_1 = 0 column of the
    # (3, 16, 9) half spectra bit for bit, and the rest stays exactly 0
    coeffs, cov = equivalence_case("2d-e0")
    grid = coeffs.diffusion.grid
    stepper = SpdeStepper(coeffs, cov, 0.5 * stability_limit(coeffs), scheme)
    rho0 = default_initial_density(grid)
    half = np.broadcast_to(_half_spectrum(rho0.spectrum()),
                           (3, 16, 9)).copy()
    cut = stepper.cut(half)
    assert cut.shape == (3, 16, 1)
    g = np.random.default_rng(5).standard_normal((50, 3, stepper.noise_rank))
    for step in range(50):
        half = stepper.step_hat(half, g[step])
        cut = stepper.step_hat(cut, g[step])
    assert np.ascontiguousarray(half[..., :1]).tobytes() == cut.tobytes()
    assert not np.any(half[..., 1:])
    assert np.any(cut[:, 1:])
    assert np.all(cut[:, 0, 0] == rho0.spectrum()[0, 0])
    assert np.array_equal(stepper.to_physical(cut), stepper.to_physical(half))


@pytest.mark.parametrize("case, sin_x1", [("2d-full", 0.0), ("rank-2", 0.0),
                                          ("many-mode", 0.0),
                                          ("2d-e0", 0.25)])
def test_nothing_is_cut_when_an_axis_moves_or_the_start_fills_it(case,
                                                                 sin_x1):
    coeffs, cov = equivalence_case(case)
    grid = coeffs.diffusion.grid
    stepper = SpdeStepper(coeffs, cov, 1e-5)
    rho0 = TorusField.from_function(
        grid, 0, lambda x, y: 1.0 + 0.5 * np.cos(2 * np.pi * x - 1.0)
        + sin_x1 * np.sin(2 * np.pi * y))
    half = _half_spectrum(rho0.spectrum())
    assert stepper.cut(half).shape == half.shape


def test_step_hat_refuses_a_cut_along_a_moved_axis():
    coeffs, cov = equivalence_case("2d-e0")
    stepper = SpdeStepper(coeffs, cov, 1e-5)
    g = np.ones((2, stepper.noise_rank))
    with pytest.raises(ValueError, match="cuts an axis"):
        stepper.step_hat(np.zeros((2, 1, 9), dtype=complex), g)
    with pytest.raises(ValueError, match="nor a cut"):
        stepper.step_hat(np.zeros((2, 16, 5), dtype=complex), g)
    assert stepper.step_hat(np.zeros((2, 16, 1), dtype=complex),
                            g).shape == (2, 16, 1)


def test_cut_runs_are_bit_identical_to_half_spectrum_runs(monkeypatch):
    # the same runs with `cut` patched to keep the half spectrum
    coeffs, cov = equivalence_case("2d-e0")
    grid = coeffs.diffusion.grid
    rho0 = default_initial_density(grid)
    xi = [TorusField.from_function(grid, 0, lambda *xs: np.sin(
        2 * np.pi * xs[0]) / (2 * np.pi))]
    dt = 0.5 * stability_limit(coeffs)
    runs = []
    for cut in (SpdeStepper.cut, lambda self, coef: coef):
        monkeypatch.setattr(SpdeStepper, "cut", cut)
        runs.append((
            run_ensemble(coeffs, cov, rho0, 20 * dt, dt, 10, seed=4,
                         xi_fields=xi, n_checkpoints=4),
            quadratic_variation_check(coeffs, cov, rho0, xi[0], 20 * dt, dt,
                                      10, seed=4),
            mean_equation_solve(coeffs, rho0, 20 * dt, dt)))
    (ens, qv, det), (ens_half, qv_half, det_half) = runs
    assert (ens.stepped_modes, ens_half.stepped_modes) == (16, 144)
    for name in ("times", "mean_hat", "var_hat", "samples", "min_rho"):
        assert np.array_equal(getattr(ens, name), getattr(ens_half, name))
    for name in ("empirical", "predicted", "final"):
        assert np.array_equal(getattr(qv, name), getattr(qv_half, name))
    assert np.array_equal(det.values, det_half.values)


def test_x0_only_2d_ensemble_is_the_1d_ensemble():
    # an independent check of the cut: at 2-D m=16 the two-point law and
    # an x_0-only start make the 1-D m=16 problem on the modes (k_0, 0),
    # with the same noise streams; the transforms and coefficient fields
    # differ at rounding only
    runs = []
    for dim in (2, 1):
        grid = TorusGrid(dim, 16)
        coeffs, cov = lb_setup(grid)
        xi = [TorusField.from_function(grid, 0, lambda *xs: fn(xs[0]))
              for fn in (lambda x: np.cos(2 * np.pi * x),
                         lambda x: np.sin(4 * np.pi * x))]
        runs.append(run_ensemble(coeffs, cov, default_initial_density(grid),
                                 0.002, 1e-4, 20, seed=8, xi_fields=xi,
                                 n_checkpoints=4))
    two, one = runs
    assert (two.stepped_modes, one.stepped_modes) == (16, 9)
    assert np.max(np.abs(two.samples - one.samples)) <= 1e-12
    assert np.max(np.abs(two.mean_hat[..., 0] - one.mean_hat)) <= 1e-12
    assert np.max(np.abs(two.var_hat[..., 0] - one.var_hat)) <= 1e-12
    assert not np.any(two.mean_hat[..., 1:])


def test_spde_paths_hold_no_realizations_by_grid_temporary():
    # the spde-2d-lb shape: 1000 realizations at 2-D m=16, 40 steps; one
    # state is 2.3 MB, and the unblocked step and checkpoints held 17 MB
    coeffs, cov = equivalence_case("2d-e0")
    grid = coeffs.diffusion.grid
    rho0 = TorusField.from_function(
        grid, 0, lambda *xs: 1.0 + 0.5 * np.cos(2 * np.pi * xs[0] - 1.0))
    xi = [TorusField.from_function(grid, 0, lambda *xs: np.cos(
        2 * np.pi * k * xs[0])) for k in range(4)]
    tracemalloc.start()
    try:
        res = run_ensemble(coeffs, cov, rho0, 0.01, 2.5e-4, 1000, seed=1,
                           xi_fields=xi, n_checkpoints=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.blocks_per_step == 16
    assert peak < 10e6
    # the QV check holds two consecutive states; its unblocked transforms
    # and noiseless step took it to 23.8 MB
    tracemalloc.start()
    try:
        quadratic_variation_check(coeffs, cov, rho0, xi[1], 0.01, 2.5e-4,
                                  1000, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12e6


def test_ensemble_same_for_any_worker_count(monkeypatch):
    # 10 realizations in blocks of 3 make four blocks, so both workers step
    # at least one; the blocks come back in block order
    coeffs, cov = equivalence_case("2d-full")
    grid = coeffs.diffusion.grid
    monkeypatch.setattr(spde, "BLOCK_VALUES", 3 * grid.size)
    rho0 = TorusField.from_function(
        grid, 0, lambda *xs: 1.0 + 0.5 * np.cos(2 * np.pi * xs[0] - 1.0))
    xi = [TorusField.from_function(grid, 0, lambda *xs: np.sin(
        2 * np.pi * xs[0]))]
    dt = 0.5 * stability_limit(coeffs)
    one, two = [run_ensemble(coeffs, cov, rho0, 20 * dt, dt, 10, seed=4,
                             xi_fields=xi, n_checkpoints=4, n_workers=w)
                for w in (1, 2)]
    assert one.blocks_per_step == 4
    for name in ("times", "mean_hat", "var_hat", "samples", "min_rho"):
        assert np.array_equal(getattr(one, name), getattr(two, name))


def test_ensemble_memory_does_not_grow_with_realizations():
    # blocks are stepped to the horizon one after another: going from 256
    # to 1024 realizations at 2-D m=16 adds only per-realization samples
    coeffs, cov = equivalence_case("2d-e0")
    grid = coeffs.diffusion.grid
    rho0 = TorusField.from_function(
        grid, 0, lambda *xs: 1.0 + 0.5 * np.cos(2 * np.pi * xs[0] - 1.0))
    xi = [TorusField.from_function(grid, 0, lambda *xs: np.cos(
        2 * np.pi * k * xs[0])) for k in range(4)]
    peaks = []
    for n in (256, 1024):
        tracemalloc.start()
        try:
            run_ensemble(coeffs, cov, rho0, 0.01, 2.5e-4, n, seed=1,
                         xi_fields=xi, n_checkpoints=4)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] - peaks[0] < 1e6


def test_ensemble_memory_at_2d_m64():
    # simulate-spde's law, start and test functions at 2-D m=64: 256
    # realizations in blocks of 4, 20 steps, 5 checkpoints; the stepped
    # states are (4, 64, 1), so the peak is the transforms at the
    # checkpoints, the stepper's set-up and the (5, 64, 64) results
    grid = TorusGrid(2, 64)
    coeffs, cov = lb_setup(grid)
    xi = [f for _, f in default_test_functions(grid)]
    rho0 = default_initial_density(grid)
    tracemalloc.start()
    try:
        res = run_ensemble(coeffs, cov, rho0, 2e-4, 1e-5, 256, seed=1,
                           xi_fields=xi, n_checkpoints=4)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (res.blocks_per_step, res.n_steps) == (64, 20)
    assert peak < 2e6


MASS_GRID = TorusGrid(2, 8)
MASS_CASE = lb_setup(MASS_GRID)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 2**32), n_realizations=st.integers(2, 9),
       coef=st.lists(st.floats(-0.3, 0.3), min_size=4, max_size=4),
       mass=st.floats(0.1, 10.0))
def test_mass_mode_kept_to_the_bit(seed, n_realizations, coef, mass):
    # smooth initial densities (modes |k| <= 1) and random noise streams:
    # the k = 0 coefficient of every realization stays the initial one
    # exactly, so the ensemble mean keeps it and its variance is exactly 0
    coeffs, cov = MASS_CASE
    a, b, c, d = coef
    rho0 = TorusField.from_function(MASS_GRID, 0, lambda x, y: mass * (
        1.0 + a * np.cos(2 * np.pi * x) + b * np.sin(2 * np.pi * x)
        + c * np.cos(2 * np.pi * y) + d * np.sin(2 * np.pi * (x + y))))
    dt = 0.5 * stability_limit(coeffs)
    res = run_ensemble(coeffs, cov, rho0, 6 * dt, dt, n_realizations,
                       seed=seed, n_checkpoints=3)
    assert np.all(res.mean_hat[:, 0, 0] == rho0.spectrum()[0, 0])
    assert np.all(res.var_hat[:, 0, 0] == 0.0)
