"""Acceptance suite: every headline criterion at its stated tolerance.

Each test prints one PASS/FAIL line per check; run with
`pytest -s tests/test_acceptance.py` to see them.  Sizes and tolerances are
pinned here, not configurable.  Every criterion runs its check of
`kinlim.experiment` with the acceptance sample sizes and bounds; `kinlim
validate` runs the same checks of criteria 1-11 at desk sizes, and
criterion 12 is the `converge` stage's study.  The only draw made here is
the one stationary pass that feeds the coefficients and the covariance;
every check draws from its own keys `(SEED, tag, ...)` of the stream
table in `kinlim.rng`.
"""

import time

import pytest

from kinlim.coefficients import (compute_coefficients, compute_cov_operator,
                                 draw_stationary)
from kinlim.config import ExperimentConfig
from kinlim.equilibrium import FP, LB
from kinlim.experiment import (CheckResult, check_coefficients_closed_form,
                               check_convergence_trend,
                               check_corrector_scaling, check_cov_operator,
                               check_enhancement, check_gaussian_identities,
                               check_invariant_second_moment,
                               check_mean_equation, check_moment_evolution,
                               check_resolvent_closed_forms, check_spde_suite,
                               check_sympos)
from kinlim.forcing import two_point_renewal
from kinlim.torus import TorusGrid

AMP = 0.5
SEED = 20240801


def announce_checks(num, results):
    passed = all(c.passed for c in results)
    detail = "".join(f"\n    {c.line()}" for c in results)
    print(f"\n[criterion {num:02d}] {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {num}: {detail}"


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
def draws(model, grid):
    # one pass for both collisions and the covariance, as `coeffs` and
    # `validate` make it
    return draw_stationary(model, grid, 200, seed=SEED)


@pytest.fixture(scope="module")
def lb_coeffs(model, grid, draws):
    return compute_coefficients(model, LB, grid, draws)


@pytest.fixture(scope="module")
def fp_coeffs(model, grid, draws):
    return compute_coefficients(model, FP, grid, draws)


@pytest.fixture(scope="module")
def cov(grid, draws):
    return compute_cov_operator(grid, draws)


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


def test_criterion_10_mean_equation(lb_coeffs, cov):
    run_timed(10, 300.0, check_mean_equation, coeffs=lb_coeffs, cov=cov,
              horizon=0.05, dt=1e-5, n_realizations=512, n_sigma=4.0,
              seed=SEED)


def test_criterion_11_corrector_scaling(model):
    announce_checks(11, check_corrector_scaling(
        model, LB, epsilons=(0.5, 0.25, 0.125), horizon=0.05, dt_factor=0.1,
        n_particles=50_000, n_paths=3, n_checkpoints=10,
        exponent_range=(0.7, 1.3), seed=SEED))


def test_criterion_12_convergence_trend(lb_coeffs, cov):
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
    run_timed(12, 1800.0, check_convergence_trend, cfg=cfg, coeffs=lb_coeffs,
              cov=cov)
