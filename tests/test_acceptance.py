"""Acceptance suite: every headline criterion at its stated tolerance.

Each test prints one PASS/FAIL line; run with `pytest -s tests/test_acceptance.py`
to see them.  Tolerances are pinned here, not configurable.  Criteria 1-9
run the identity checks of `kinlim.experiment` (the ones `kinlim validate`
runs at desk sizes) with the acceptance sample sizes and bounds.
"""

import time

import numpy as np
import pytest

from kinlim.coefficients import (compute_coefficients, compute_cov_operator,
                                 draw_stationary)
from kinlim.config import ExperimentConfig
from kinlim.equilibrium import FP, LB
from kinlim.experiment import (CheckResult, check_coefficients_closed_form,
                               check_cov_operator, check_enhancement,
                               check_gaussian_identities,
                               check_invariant_second_moment,
                               check_moment_evolution,
                               check_resolvent_closed_forms, check_spde_suite,
                               check_sympos, convergence_study,
                               default_initial_density)
from kinlim.forcing import generate_path, two_point_renewal
from kinlim.kinetic import KineticRunConfig, run_rescaled
from kinlim.rng import substream
from kinlim.spde import mean_equation_solve, run_ensemble
from kinlim.torus import TorusGrid, sobolev_norm

AMP = 0.5
SEED = 20240801


def announce(num, passed, detail):
    status = "PASS" if passed else "FAIL"
    print(f"\n[criterion {num:02d}] {status}: {detail}")
    assert passed, f"criterion {num}: {detail}"


def announce_checks(num, results):
    announce(num, all(c.passed for c in results),
             "".join(f"\n    {c.line()}" for c in results))


def run_timed(num, gate_s, check, **kwargs):
    """Run a check and add its wall time as one more result."""
    start = time.perf_counter()
    results = check(**kwargs)
    elapsed = time.perf_counter() - start
    announce_checks(num, results + [CheckResult(
        "elapsed s", elapsed < gate_s, elapsed, gate_s)])


@pytest.fixture(scope="module")
def grid():
    return TorusGrid(1, 64)


@pytest.fixture(scope="module")
def model(grid):
    return two_point_renewal(grid, AMP)


@pytest.fixture(scope="module")
def lb_coeffs(model, grid):
    return compute_coefficients(model, LB, grid,
                                draw_stationary(model, grid, 200, seed=SEED))


@pytest.fixture(scope="module")
def fp_coeffs(model, grid):
    draws = draw_stationary(model, grid, 200, seed=SEED + 1)
    return compute_coefficients(model, FP, grid, draws)


@pytest.fixture(scope="module")
def cov(model, grid):
    return compute_cov_operator(grid, draw_stationary(model, grid, 200,
                                                      seed=SEED + 2))


def test_criterion_01_gaussian_identities():
    run_timed(1, 5.0, check_gaussian_identities, n_shifts=20, bound=1e-6,
              seed=SEED)


def test_criterion_02_resolvent_closed_forms(model):
    announce_checks(2, check_resolvent_closed_forms(model, seed=SEED))


def test_criterion_03_moment_evolution(grid):
    run_timed(3, 30.0, check_moment_evolution, grid=grid, amplitude=AMP,
              n_particles=100_000, dt=0.002, n_sigma=3.0, dt_allowance=0.0,
              seed=SEED)


def test_criterion_04_invariant_second_moment(model):
    run_timed(4, 60.0, check_invariant_second_moment, model=model,
              amplitude=AMP, mode=1, n_paths=10_000, n_sigma=3.0, seed=SEED)


def test_criterion_05_sympos_identity(model):
    announce_checks(5, check_sympos(model, n_paths=10_000, n_mc=1_000,
                                    n_sigma=3.0, seed=SEED))


def test_criterion_06_cov_operator(model, cov):
    announce_checks(6, check_cov_operator(model, cov, AMP, mode=1,
                                          n_sigma=3.0, trace_slack=0.0))


def test_criterion_07_coefficient_closed_forms(lb_coeffs, fp_coeffs, cov):
    results = []
    for coeffs in (lb_coeffs, fp_coeffs):
        results += check_coefficients_closed_form(
            coeffs, AMP, mode=1, tolerance=lambda se: 3 * se + 1e-10)
    announce_checks(7, results + check_enhancement(lb_coeffs, cov,
                                                   strato_bound=0.0))


def test_criterion_08_strato_degeneracy(fp_coeffs, cov):
    announce_checks(8, check_enhancement(fp_coeffs, cov, strato_bound=0.0))


def test_criterion_09_spde_solver(lb_coeffs, cov):
    announce_checks(9, check_spde_suite(lb_coeffs, cov, n_qv=256,
                                        qv_bound=0.10, seed=SEED))


def test_criterion_10_mean_equation(grid, lb_coeffs, cov):
    start = time.perf_counter()
    rho0 = default_initial_density(grid)
    t, dt, n = 0.05, 1e-5, 512
    res = run_ensemble(lb_coeffs, cov, rho0, t, dt, n, seed=SEED + 10)
    det = mean_equation_solve(lb_coeffs, rho0, t, dt)
    dist = sobolev_norm(res.mean_field(grid) - det, -1.0)
    weights = (1.0 + grid.laplace_symbol()) ** (-1.0)
    se = float(np.sqrt(np.sum(weights * res.var_hat[-1] / n)))
    elapsed = time.perf_counter() - start
    announce(10, dist < 4 * se and elapsed < 300.0,
             f"ensemble mean vs drift solve: H^-1 distance {dist:.2e} "
             f"< 4 se = {4 * se:.2e} at n=512, {elapsed:.1f} s (< 300 s)")


def test_criterion_11_corrector_scaling(grid, model):
    rho0 = default_initial_density(grid)
    eps_list = (0.5, 0.25, 0.125)
    n_paths = 3
    sup_norms = []
    for i, eps in enumerate(eps_list):
        cfg = KineticRunConfig(LB, eps, 0.05, 0.1 * eps**2, 50_000, grid)
        vals = []
        for p in range(n_paths):
            path = generate_path(model, cfg.micro_horizon * 1.001 + 1e-9,
                                 seed=substream(SEED, 11, i, p))
            run = run_rescaled(cfg, path, rho0, substream(SEED, 12, i, p),
                               n_checkpoints=10)
            vals.append(run.corrector_norms.max())
        sup_norms.append(np.mean(vals))
    slope = np.polyfit(np.log(eps_list), np.log(sup_norms), 1)[0]
    announce(11, 0.7 <= slope <= 1.3,
             f"sup_t dual norm of the corrector over eps {eps_list}: "
             f"{[f'{v:.4f}' for v in sup_norms]}, fitted exponent "
             f"{slope:.3f} in [0.7, 1.3]")


def test_criterion_12_convergence_trend(grid, model, lb_coeffs, cov):
    start = time.perf_counter()
    cfg = ExperimentConfig(
        epsilons=(0.5, 0.25, 0.125),
        horizon=0.05,
        n_particles=10_000,
        n_realizations=256,
        n_spde_realizations=256,
        n_mc=200,
        seed=SEED % 100_000,
        # bit-identical for any worker count, so two workers change only
        # the wall time
        threads=2,
    )
    rep = convergence_study(cfg, lb_coeffs, cov)
    elapsed = time.perf_counter() - start
    lines = []
    for i, eps in enumerate(rep.epsilons):
        lines.append(
            f"eps={eps}: mean gaps "
            f"{[f'{g:.4f}' for g in rep.mean_gaps[i]]}, var gaps "
            f"{[f'{g:.5f}' for g in rep.var_gaps[i]]}, KS "
            f"{[f'{k:.3f}' for k in rep.ks_stats[i]]}")
    print("\n" + "\n".join(lines))
    announce(12, rep.mean_trend_ok and rep.var_trend_ok and elapsed < 1800.0,
             f"per-xi mean/variance gaps decrease monotonically over "
             f"eps {rep.epsilons} up to 1 se slack "
             f"(mean {'ok' if rep.mean_trend_ok else 'VIOLATED'}, "
             f"variance {'ok' if rep.var_trend_ok else 'VIOLATED'}), "
             f"{elapsed / 60:.1f} min (< 30 min)")
