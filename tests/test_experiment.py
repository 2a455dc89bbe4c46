import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from kinlim import experiment
from kinlim.coefficients import (CovOperator, compute_coefficients,
                                 compute_cov_operator, draw_stationary)
from kinlim.config import ExperimentConfig
from kinlim.equilibrium import FP, LB
from kinlim.experiment import (_ks_statistic, _trend_excess,
                               build_model, check_coefficients_closed_form,
                               check_cov_operator, check_enhancement,
                               coefficients_stage, convergence_study,
                               default_initial_density,
                               default_test_functions, load_coefficient_stage,
                               validation_suite)
from kinlim.forcing import two_point_renewal
from kinlim.kinetic import KineticRunConfig, functional_samples
from kinlim.torus import TorusGrid


def test_monotone_with_slack():
    gaps = np.array([[0.5], [0.3], [0.2]])
    ses = np.array([[0.01], [0.01], [0.01]])
    assert _trend_excess(gaps, ses) <= 0.0
    gaps_bad = np.array([[0.2], [0.5], [0.2]])
    assert _trend_excess(gaps_bad, ses) > 0.0
    # increase within one combined standard error is tolerated
    gaps_noisy = np.array([[0.20], [0.21], [0.19]])
    ses_wide = np.array([[0.01], [0.01], [0.01]])
    assert _trend_excess(gaps_noisy, ses_wide) <= 0.0
    # a column of exact-zero gaps (a point mass on both sides) cannot rise
    # and leaves the margin of the others as it is
    zeros = np.zeros((3, 1))
    for g in (gaps, gaps_bad):
        assert _trend_excess(np.hstack([g, zeros]), np.hstack([ses, zeros])) \
            == _trend_excess(g, ses)


def test_ks_statistic_point_masses():
    a = np.full(64, 0.5)
    b = a + 1e-16
    assert _ks_statistic(a, b) == 0.0
    # a one-ulp rounding spread inside a sample is still a point mass
    b[::2] = 0.5
    assert _ks_statistic(a, b) == 0.0
    assert _ks_statistic(a, a + 1.0) == 1.0


def test_ks_statistic_equals_scipy():
    # rounded samples, so most cases hold ties within and across samples
    rng = np.random.default_rng(12)
    for _ in range(300):
        na, nb = rng.integers(2, 401, size=2)
        a = np.round(rng.standard_normal(na), 1)
        b = np.round(rng.normal(0.3, 1.2, nb), 1)
        assert _ks_statistic(a, b) == float(stats.ks_2samp(a, b).statistic)


def test_cli_import_loads_no_scipy(tmp_path):
    # neither the import nor a mini coeffs + simulate-spde run nor an OU
    # coeffs run (closed-form resolvents) loads scipy
    src = str(Path(__file__).resolve().parents[1] / "src")
    cfg = ExperimentConfig(grid_m=16, horizon=0.001, n_mc=100,
                           n_spde_realizations=8, n_checkpoints=2,
                           dt_spde=1e-4, out_dir=str(tmp_path / "out"))
    cfg.save(tmp_path / "config.txt")
    cfg.model_kind, cfg.out_dir = "ou", str(tmp_path / "out_ou")
    cfg.save(tmp_path / "config_ou.txt")
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import kinlim.cli; "
            "loaded = lambda: sorted(k for k in sys.modules "
            "if k.startswith('scipy')); print(loaded()); "
            "assert kinlim.cli.main(['coeffs', '--config', sys.argv[2]]) == 0; "
            "assert kinlim.cli.main(['simulate-spde', '--config', "
            "sys.argv[2]]) == 0; "
            "assert kinlim.cli.main(['coeffs', '--config', sys.argv[3]]) == 0; "
            "print(loaded())")
    proc = subprocess.run([sys.executable, "-c", code, src,
                           str(tmp_path / "config.txt"),
                           str(tmp_path / "config_ou.txt")],
                          capture_output=True, text=True, check=True)
    lines = proc.stdout.strip().splitlines()
    assert lines[0] == "[]" and lines[-1] == "[]"


class _Stop(Exception):
    pass


def test_convergence_study_kinetic_streams_keyed_by_seed_and_eps(monkeypatch):
    # the kinetic streams were once seeded with 1000 + 17 i + seed, so seed
    # 24 at eps index 0 and seed 7 at eps index 1 drew the same samples
    def stream_keys(seed):
        keys = []

        def capture(kcfg, model, rho0, xi, n_realizations, seed, n_workers):
            keys.append(seed)
            if len(keys) == 2:
                raise _Stop
            return np.zeros((n_realizations, len(xi))), \
                np.zeros((n_realizations, len(xi)))
        monkeypatch.setattr(experiment, "functional_samples", capture)
        with pytest.raises(_Stop):
            convergence_study(ExperimentConfig(grid_m=32, seed=seed),
                              None, None)
        return keys

    key_24, key_7 = stream_keys(24)[0], stream_keys(7)[1]
    assert key_24 != key_7
    grid = TorusGrid(1, 32)
    kcfg = KineticRunConfig(LB, 0.5, 0.025, 0.025, 200, grid)
    model = two_point_renewal(grid, 0.5)
    rho0 = default_initial_density(grid)
    xi = [f for _, f in default_test_functions(grid)]
    a, _ = functional_samples(kcfg, model, rho0, xi, 2, seed=key_24)
    b, _ = functional_samples(kcfg, model, rho0, xi, 2, seed=key_7)
    assert not np.array_equal(a[:, 1:], b[:, 1:])


def test_convergence_study_refuses_a_partial_spde_step(monkeypatch):
    # horizon 0.05 is 1666.7 steps of 3e-5: refused before any particle runs
    def no_particles(*args, **kwargs):
        raise AssertionError("the kinetic side ran")
    monkeypatch.setattr(experiment, "functional_samples", no_particles)
    with pytest.raises(ValueError, match="whole number of steps"):
        convergence_study(ExperimentConfig(grid_m=32, dt_spde=3e-5),
                          None, None)


def test_point_mass_functional_has_exact_zero_gaps():
    # the mass functional is one point mass on both sides: its table cells
    # are exact zeros, not rounding that moves with every upstream change
    cfg = ExperimentConfig(grid_m=16, epsilons=(0.6, 0.5, 0.4),
                           horizon=0.002, n_particles=100, n_realizations=64,
                           n_spde_realizations=64, n_mc=100, dt_spde=5e-5,
                           seed=3)
    grid = TorusGrid(1, 16)
    model = build_model(cfg)
    draws = draw_stationary(model, grid, 100, seed=3)
    rep = convergence_study(cfg, compute_coefficients(draws, LB),
                            compute_cov_operator(draws))
    one = rep.xi_names.index("one")
    cells = (rep.mean_gaps, rep.mean_gap_se, rep.var_gaps, rep.var_gap_se,
             rep.ks_stats)
    assert all((c[:, one] == 0.0).all() for c in cells)
    assert (np.delete(rep.mean_gap_se, one, axis=1) > 0.0).all()


def test_mislabel_detection():
    def tol(se):
        return 3 * np.max(se) + 1e-9

    grid = TorusGrid(1, 32)
    model = two_point_renewal(grid, 0.5)
    coeffs = compute_coefficients(
        draw_stationary(model, grid, 120, seed=1), FP)
    [ok] = check_coefficients_closed_form(coeffs, 0.5, 1, tol)
    assert ok.passed
    coeffs.collision = LB           # deliberate mislabel
    coeffs.collision_factor = 2.0
    [bad] = check_coefficients_closed_form(coeffs, 0.5, 1, tol)
    assert not bad.passed
    cov = compute_cov_operator(draw_stationary(model, grid, 120, seed=2))
    assert not all(c.passed for c in
                   check_enhancement(coeffs, cov, strato_bound=1e-12))


def test_default_test_functions_shapes():
    grid = TorusGrid(1, 32)
    xi = default_test_functions(grid)
    names = [n for n, _ in xi]
    assert names == ["one", "cos1", "sin1", "cos2"]
    for _, f in xi:
        assert f.rank == 0 and f.grid == grid


def test_coefficient_stage_files_and_reload(tmp_path):
    cfg = ExperimentConfig(grid_m=32, n_mc=100, out_dir=str(tmp_path),
                           seed=5)
    coeffs, cov, report, trace_ok = coefficients_stage(cfg)
    assert report.passed and trace_ok
    loaded_c, loaded_k = load_coefficient_stage(str(tmp_path))
    assert np.max(np.abs(loaded_c.diffusion.values
                         - coeffs.diffusion.values)) < 1e-12
    assert np.allclose(loaded_k.eigenvalues, cov.eigenvalues)


def no_dense_kernel(monkeypatch):
    def refuse(self):
        raise AssertionError("dense covariance kernel read")
    monkeypatch.setattr(CovOperator, "kernel", property(refuse))


def test_check_cov_operator_reads_no_dense_kernel(monkeypatch):
    # criterion 6 reads the symmetry and the smallest eigenvalue recorded
    # from the low-rank form
    grid = TorusGrid(2, 16)
    model = two_point_renewal(grid, 0.5)
    cov = compute_cov_operator(draw_stationary(model, grid, 100, seed=4))
    no_dense_kernel(monkeypatch)
    results = check_cov_operator(model, cov, 0.5, mode=1, n_sigma=3.0,
                                 trace_slack=1e-12)
    assert all(r.passed for r in results)
    assert [r.observed for r in results[:2]] == [0.0, 0.0]


def test_validation_suite_mini_passes(monkeypatch):
    no_dense_kernel(monkeypatch)
    cfg = ExperimentConfig(grid_m=32, n_mc=100, n_paths=1500,
                           n_particles=2000, seed=9)
    report = validation_suite(cfg)
    for line in report.lines():
        print(line)
    assert report.passed


def test_build_model_kinds():
    cfg = ExperimentConfig(grid_m=32)
    m = build_model(cfg)
    assert m.kind == "renewal"
    cfg2 = ExperimentConfig(grid_m=32, model_kind="ou")
    m2 = build_model(cfg2)
    assert m2.kind == "ou"
