"""Experiment orchestration: coefficient stage, convergence study, validation.

Stages communicate only through CSV contract files (coefficients + spectrum),
so they can run in separate processes or machines; the whole pipeline is a
pure function of (config, seed).
"""

from __future__ import annotations

import math
import os
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import __version__
from .coefficients import (COLLISION_FACTOR, CovOperator, HydroCoefficients,
                           check_sympos_identity,
                           closed_form_two_point_diffusion,
                           coefficients_from_csv, coefficients_to_csv,
                           compute_coefficients, compute_cov_operator,
                           draw_stationary, spectrum_from_csv, spectrum_to_csv,
                           verify_enhancement)
from .config import ExperimentConfig, RunManifest
from .equilibrium import (FP, LB, gaussian_identities_check,
                          invariant_solution, path_weighted_integral,
                          profile_moments)
from .forcing import (ForceFieldModel, ForceSample, PathBlock,
                      constant_two_point_renewal, generate_path,
                      ou_single_mode, resolvent_apply, sample_stationary,
                      two_point_renewal)
from .kinetic import (KineticRunConfig, _evolve, functional_samples,
                      run_rescaled)
from .rng import (CONVERGE_KINETIC, CORRECTOR_SCALING, GAUSSIAN_SHIFTS,
                  INVARIANT_PATHS, MEAN_EQUATION, MOMENT_PARTICLES,
                  MOMENT_PATH, PARTICLES, PATH, RESOLVENT_FORMS,
                  SPDE_LINEARITY, SPDE_MASS, SPDE_QV, SYMPOS, substream)
from .spde import (mean_equation_solve, quadratic_variation_check,
                   run_ensemble, step_count)
from .torus import TorusField, TorusGrid, pairing, sobolev_norm


def build_model(cfg: ExperimentConfig) -> ForceFieldModel:
    grid = TorusGrid(cfg.dim, cfg.grid_m)
    if cfg.model_kind == "renewal":
        return two_point_renewal(grid, cfg.amplitude, mode=cfg.mode,
                                 sobolev_index=cfg.sobolev_index)
    return ou_single_mode(grid, cfg.amplitude, mode=cfg.mode,
                          sobolev_index=cfg.sobolev_index)


def default_test_functions(grid: TorusGrid):
    """The separating low-mode set {1, cos, sin, cos 2.}, first axis."""
    def mk(fn):
        return TorusField.from_function(grid, 0, lambda *xs: fn(xs[0]))

    return [
        ("one", TorusField.constant(grid, 1.0)),
        ("cos1", mk(lambda x: np.cos(2 * np.pi * x))),
        ("sin1", mk(lambda x: np.sin(2 * np.pi * x))),
        ("cos2", mk(lambda x: np.cos(4 * np.pi * x))),
    ]


def default_initial_density(grid: TorusGrid) -> TorusField:
    """Mass-one bump with a phase offset, so that both the cosine and the
    sine test functionals carry signal (a symmetric bump would leave the
    sine marginals identically centred and their law gaps pure noise)."""
    return TorusField.from_function(
        grid, 0, lambda *xs: 1.0 + 0.5 * np.cos(2 * np.pi * xs[0] - 1.0))


# -- coefficient stage -------------------------------------------------------------


def coefficients_stage(cfg: ExperimentConfig):
    """Compute limit-equation data, write the CSV contract files + manifest."""
    cfg.validate()
    out = cfg.out_dir
    os.makedirs(out, exist_ok=True)
    grid = TorusGrid(cfg.dim, cfg.grid_m)
    model = build_model(cfg)
    draws = draw_stationary(model, grid)
    coeffs = compute_coefficients(draws, cfg.collision)
    cov = compute_cov_operator(draws)
    report = verify_enhancement(coeffs, cov)
    cpath = os.path.join(out, "coefficients.csv")
    spath = os.path.join(out, "spectrum.csv")
    coefficients_to_csv(coeffs, cpath)
    spectrum_to_csv(cov, spath)
    manifest = RunManifest(cfg.content_hash(), __version__, "coeffs",
                           {"coeffs": cfg.seed})
    manifest.add_file(cpath)
    manifest.add_file(spath)
    manifest.save(os.path.join(out, "manifest_coeffs.txt"))
    trace_bound_ok = cov.trace <= cfg.dim * model.norm_bound + 1e-12
    return coeffs, cov, report, trace_bound_ok


def load_coefficient_stage(out_dir):
    cpath = os.path.join(out_dir, "coefficients.csv")
    spath = os.path.join(out_dir, "spectrum.csv")
    if not (os.path.exists(cpath) and os.path.exists(spath)):
        raise FileNotFoundError(
            "coefficient stage outputs missing; run the coeffs stage first")
    return coefficients_from_csv(cpath), spectrum_from_csv(spath)


# -- convergence study --------------------------------------------------------------


@dataclass
class ConvergenceReport:
    epsilons: list
    xi_names: list
    kinetic_mean: np.ndarray      # (n_eps, n_xi)
    kinetic_var: np.ndarray
    spde_mean: np.ndarray         # (n_xi,)
    spde_var: np.ndarray
    mean_gaps: np.ndarray         # (n_eps, n_xi)
    var_gaps: np.ndarray
    mean_gap_se: np.ndarray
    var_gap_se: np.ndarray
    ks_stats: np.ndarray
    mean_trend_excess: float      # `_trend_excess` of the mean gaps
    var_trend_excess: float
    kinetic_runs: list            # (KineticRunConfig, seconds) per eps
    spde_stepped_modes: int       # `EnsembleResult.stepped_modes`
    spde_steps: int               # `EnsembleResult.n_steps`
    spde_seconds: float           # wall time of the SPDE ensemble

    @property
    def mean_trend_ok(self) -> bool:
        return self.mean_trend_excess <= 0.0

    @property
    def var_trend_ok(self) -> bool:
        return self.var_trend_excess <= 0.0

    def table_rows(self):
        rows = []
        for i, eps in enumerate(self.epsilons):
            for j, name in enumerate(self.xi_names):
                rows.append({
                    "epsilon": eps, "xi": name,
                    "mean_gap": self.mean_gaps[i, j],
                    "mean_gap_se": self.mean_gap_se[i, j],
                    "var_gap": self.var_gaps[i, j],
                    "var_gap_se": self.var_gap_se[i, j],
                    "ks_stat": self.ks_stats[i, j],
                })
        return rows


def _trend_excess(gaps, ses) -> float:
    """Worst increase of a gap from one row to the next beyond one combined
    standard error; the gaps fall monotonically up to that slack when it is
    <= 0.  Columns whose gaps are all exactly zero cannot rise and are left
    out, so the value is the margin of the others (-inf if none is left)."""
    slack = np.sqrt(ses[1:] ** 2 + ses[:-1] ** 2)
    excess = gaps[1:] - (gaps[:-1] + slack)
    return float(np.max(excess[:, gaps.any(axis=0)], initial=-np.inf))


def _same_point_mass(a, b) -> bool:
    """Samples a and b are one point mass up to rounding: spreads and gap
    within 1e-12 of the sample scale (a mass functional sums thousands of
    weights on one side and a spectral mean on the other, so the two point
    masses differ by ~1e-16)."""
    scale = 1e-12 * max(np.max(np.abs(a)), np.max(np.abs(b)), 1.0)
    return max(np.ptp(a), np.ptp(b), abs(a[0] - b[0])) <= scale


def _ks_statistic(a, b) -> float:
    """Two-sample KS statistic; 0 when both samples are the same point mass
    (`_same_point_mass`).  The largest gap between the empirical CDFs is
    h / lcm(n_a, n_b) for an integer h, found exactly in integers (the
    value of scipy's exact mode).
    """
    if _same_point_mass(a, b):
        return 0.0
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    lcm = math.lcm(a.size, b.size)
    gaps = (np.searchsorted(a, both, side="right") * (lcm // a.size)
            - np.searchsorted(b, both, side="right") * (lcm // b.size))
    return float(np.abs(gaps).max() / lcm)


def convergence_study(cfg: ExperimentConfig, coeffs: HydroCoefficients,
                      cov: CovOperator) -> ConvergenceReport:
    """Compare the laws of <rho^eps_T, xi> and <rho_T, xi> over the eps sweep."""
    cfg.validate()
    if len(cfg.epsilons) < 3:
        raise ValueError("need at least three epsilon values for a trend")
    if cfg.n_realizations < 64 or cfg.n_spde_realizations < 64:
        raise ValueError("need at least 64 samples per law")
    step_count(cfg.horizon, cfg.dt_spde)    # refuse before any particle runs
    grid = TorusGrid(cfg.dim, cfg.grid_m)
    model = build_model(cfg)
    rho0 = default_initial_density(grid)
    xi = default_test_functions(grid)
    xi_names = [n for n, _ in xi]
    xi_fields = [f for _, f in xi]

    kin_samples, kin_floors, kin_runs = [], [], []
    for i, eps in enumerate(cfg.epsilons):
        kcfg = KineticRunConfig(cfg.collision, eps, cfg.horizon,
                                cfg.micro_dt(eps), cfg.n_particles, grid)
        start = time.perf_counter()
        samples, floors = functional_samples(
            kcfg, model, rho0, xi_fields, cfg.n_realizations,
            seed=(cfg.seed, CONVERGE_KINETIC, i), n_workers=cfg.threads)
        kin_runs.append((kcfg, time.perf_counter() - start))
        kin_samples.append(samples)
        kin_floors.append(floors)
    start = time.perf_counter()
    spde_res = run_ensemble(coeffs, cov, rho0, cfg.horizon, cfg.dt_spde,
                            cfg.n_spde_realizations, seed=cfg.seed,
                            xi_fields=xi_fields, n_checkpoints=1,
                            n_workers=cfg.threads)
    spde_seconds = time.perf_counter() - start
    spde_samples = spde_res.samples[-1]

    n_eps, n_xi = len(cfg.epsilons), len(xi_fields)
    km = np.array([s.mean(axis=0) for s in kin_samples])
    # variance of the conditional law itself: subtract the mean particle
    # noise floor (law of total variance)
    kv = np.array([s.var(axis=0, ddof=1) - f.mean(axis=0)
                   for s, f in zip(kin_samples, kin_floors)])
    kse = np.array([s.std(axis=0, ddof=1) / np.sqrt(s.shape[0])
                    for s in kin_samples])
    sm = spde_samples.mean(axis=0)
    sv = spde_samples.var(axis=0, ddof=1)
    sse = spde_samples.std(axis=0, ddof=1) / np.sqrt(spde_samples.shape[0])
    mean_gaps = np.abs(km - sm)
    mean_gap_se = np.sqrt(kse**2 + sse**2)
    var_gaps = np.abs(kv - sv)
    kv_raw = np.array([s.var(axis=0, ddof=1) for s in kin_samples])
    var_gap_se = np.sqrt(
        (kv_raw * np.sqrt(2.0 / max(cfg.n_realizations - 1, 1))) ** 2
        + (sv * np.sqrt(2.0 / max(cfg.n_spde_realizations - 1, 1))) ** 2)
    ks = np.array([[_ks_statistic(kin_samples[i][:, j], spde_samples[:, j])
                    for j in range(n_xi)] for i in range(n_eps)])
    # where both laws are one point mass (the mass functional), the gaps
    # and their errors are exactly zero, not rounding
    same = np.array([[_same_point_mass(kin_samples[i][:, j],
                                       spde_samples[:, j])
                      for j in range(n_xi)] for i in range(n_eps)])
    for arr in (mean_gaps, mean_gap_se, var_gaps, var_gap_se):
        arr[same] = 0.0
    return ConvergenceReport(list(cfg.epsilons), xi_names, km, kv, sm, sv,
                             mean_gaps, var_gaps, mean_gap_se, var_gap_se,
                             ks, _trend_excess(mean_gaps, mean_gap_se),
                             _trend_excess(var_gaps, var_gap_se), kin_runs,
                             spde_res.stepped_modes, spde_res.n_steps,
                             spde_seconds)


# -- acceptance criteria 1-12 --------------------------------------------------------
#
# One implementation per criterion.  Each check takes its sample sizes, its
# bounds and its seed from the caller and draws from the streams of its
# criterion in the key table of `kinlim.rng`, so `validation_suite` (desk
# sizes) and the acceptance tests (pinned sizes) run the same code.
# Tolerances that absorb rounding or a fixed discretisation error do not
# depend on the sample size; they are the same for every caller and fixed
# here.


@dataclass
class CheckResult:
    name: str
    passed: bool
    observed: float
    bound: float
    detail: str = ""

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        out = (f"[{status}] {self.name}: observed {self.observed:.4g} "
               f"(bound {self.bound:.4g})")
        if self.detail:
            out += f" -- {self.detail}"
        return out


@dataclass
class ValidationReport:
    checks: list = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.checks)

    def lines(self):
        return [c.line() for c in self.checks]


def check_gaussian_identities(n_shifts, bound, seed) -> list:
    """Criterion 1: Gaussian norm identities and the L1 bound at random
    shifts w, z in [-3, 3]."""
    rng = substream(seed, GAUSSIAN_SHIFTS)
    reps = [gaussian_identities_check(rng.uniform(-3.0, 3.0, size=1),
                                      rng.uniform(-3.0, 3.0, size=1))
            for _ in range(n_shifts)]
    worst = max(r.max_rel_error for r in reps)
    excess = max(r.l1_distance - r.l1_bound for r in reps)
    return [CheckResult("gaussian identities", worst < bound, worst, bound,
                        f"max relative error, {n_shifts} random shifts"),
            CheckResult("gaussian L1 bound",
                        all(r.l1_bound_holds for r in reps), excess, 1e-9,
                        "max of L1 distance - bound")]


def check_resolvent_closed_forms(model: ForceFieldModel, seed) -> list:
    """Criterion 2: R0(e) = e, R1(e) = e/2 and R1 R0 = R0 - R1, exactly;
    R1 R0 is R1 applied to the field R0(e)."""
    rng = substream(seed, RESOLVENT_FORMS)
    s = sample_stationary(model, rng)
    f0, f1 = resolvent_apply(model, (0.0, 1.0), s)
    [f10] = resolvent_apply(model, (1.0,), ForceSample(f0, s.norm_bound))
    e, r0, r1 = s.field.physical(), f0.physical(), f1.physical()
    worst = max(np.max(np.abs(r0 - e)), np.max(np.abs(r1 - 0.5 * e)),
                np.max(np.abs(f10.physical() - (r0 - r1))))
    return [CheckResult("renewal resolvents", worst == 0.0, worst, 0.0,
                        "closed forms and resolvent identity, exact")]


def check_moment_evolution(grid: TorusGrid, amplitude: float, n_particles,
                           dt, n_sigma, dt_allowance, seed) -> list:
    """Criterion 3: total current J(t) against the relaxation formula
    e^-t int_0^t e^s E(s) ds at five checkpoints, for both collisions.

    The identity holds for space-homogeneous forcing, so a constant-field
    two-point law is used.  The particles run through the kinetic stepping
    loop at eps = 1, where macro and micro time agree, in steps of
    2 / ceil(2 / dt) (dt itself when it divides 2).  Observed is the worst
    (|J - formula| - dt_allowance dt max|a|) / se; the allowance absorbs
    the O(dt) splitting bias.
    """
    model = constant_two_point_renewal(grid, amplitude)
    micro_t = 2.0
    uniform = TorusField.constant(grid, 1.0)
    x0 = np.zeros((1, grid.dim))
    allowance = dt_allowance * dt * np.max(np.abs(model.atoms[0].physical()))
    out = []
    for ci, collision in enumerate((LB, FP)):
        cfg = KineticRunConfig(collision, 1.0, micro_t, dt, n_particles, grid)
        step_dt = cfg.step_dt
        checkpoints = {int(round(f * cfg.n_steps))
                       for f in (0.2, 0.4, 0.6, 0.8, 1.0)}
        path = generate_path(model, micro_t + 0.1,
                             seed=substream(seed, MOMENT_PATH, ci))
        sigmas = []

        def record(step, ens):
            t = step * step_dt
            formula = np.exp(-t) * path_weighted_integral(
                path, x0, 1.0, 0.0, t)[0, 0]
            current = float(np.sum(ens.weights[:, None] * ens.velocities))
            se = ens.velocities.std() / np.sqrt(n_particles)
            sigmas.append((abs(current - formula) - allowance) / se)

        _evolve(cfg, PathBlock([path]), uniform,
                substream(seed, MOMENT_PARTICLES, ci),
                checkpoints, record)
        worst = max(sigmas)
        out.append(CheckResult(
            f"moment evolution ({collision})", worst < n_sigma, worst,
            n_sigma, f"(|J(t) - formula| - {dt_allowance:g} dt max|a|) / se"))
    return out


def check_invariant_second_moment(model: ForceFieldModel, amplitude: float,
                                  mode: int, n_paths, n_sigma, seed,
                                  x_val=0.2) -> list:
    """Criterion 4: E[K] of the invariant profile at x against
    1 + (b/2) a^2 cos^2(2 pi k x) for the two-point law, both collisions."""
    v_grid = np.linspace(-8.0, 8.0, 257)
    x = np.zeros((1, model.grid.dim))
    x[0, 0] = x_val
    out = []
    for ci, collision in enumerate((LB, FP)):
        second = np.empty(n_paths)
        for p in range(n_paths):
            path = generate_path(model, 20.0, t_start=-20.0,
                                 seed=substream(seed, INVARIANT_PATHS, ci, p))
            prof = invariant_solution(path, collision, x, v_grid)
            second[p] = profile_moments(prof, v_grid)[2][0, 0]
        b = COLLISION_FACTOR[collision]
        expected = 1.0 + (b / 2) * (
            amplitude * np.cos(2 * np.pi * mode * x_val)) ** 2
        se = second.std(ddof=1) / np.sqrt(n_paths)
        sigmas = abs(second.mean() - expected) / se
        out.append(CheckResult(
            f"invariant second moment ({collision})", sigmas < n_sigma,
            sigmas, n_sigma,
            f"|E[K] - 1 - (b/2) a^2 cos^2| / se at x={x_val}, {n_paths} paths"))
    return out


def check_sympos(model: ForceFieldModel, n_paths, n_mc, n_sigma,
                 seed) -> list:
    """Criterion 5: the resolvent-covariance identity at delta = 1."""
    rep = check_sympos_identity(model, delta=1.0, n_paths=n_paths,
                                n_mc=n_mc, seed=(seed, SYMPOS))
    return [CheckResult("resolvent-covariance identity (delta=1)",
                        rep.max_sigma_distance < n_sigma,
                        rep.max_sigma_distance, n_sigma,
                        "max |lhs - rhs| in combined sigmas")]


def check_cov_operator(model: ForceFieldModel, cov: CovOperator,
                       trace_slack) -> list:
    """Criterion 6, for either law: kernel symmetric and nonnegative, and
    trace <= N R.  The symmetry and the smallest eigenvalue are those
    `compute_cov_operator` records from its low-rank form; no dense kernel
    is built."""
    sym_gap, min_eig = cov.symmetry_gap, cov.min_eigenvalue
    trace_bound = cov.grid.dim * model.norm_bound + trace_slack
    return [CheckResult("covariance kernel symmetry", sym_gap < 1e-10,
                        sym_gap, 1e-10),
            CheckResult("covariance kernel nonnegative",
                        min_eig >= -cov.tol_eig, min_eig, -cov.tol_eig,
                        "min eigenvalue"),
            CheckResult("covariance trace <= N R", cov.trace <= trace_bound,
                        cov.trace, trace_bound)]


def check_leading_pair(cov: CovOperator, amplitude: float,
                       mode: int) -> list:
    """Criterion 6, two-point law: the leading pair a^2/2, sqrt(2) cos(2 pi
    k x_0).  The OU law's clamp moves its eigenvalue off a^2/2 (by 1.4e-7
    at clip radius 5), so it is not held to this closed form."""
    grid = cov.grid
    lam_gap = abs((cov.eigenvalues[0] if cov.rank else 0.0) - amplitude**2 / 2)
    out = [CheckResult("leading eigenvalue a^2/2", lam_gap < 1e-10,
                       lam_gap, 1e-10)]
    if cov.rank:
        target = np.sqrt(2) * np.cos(
            2 * np.pi * mode * grid.coords()[0]).reshape(-1)
        z = cov.eigenfields[0].physical()[0].reshape(-1)
        corr = abs(float(np.dot(z, target))
                   / (np.linalg.norm(z) * np.linalg.norm(target)))
        out.append(CheckResult("leading eigenfield", corr > 0.999, corr,
                               0.999, "correlation with sqrt(2) cos"))
    return out


def check_coefficients_closed_form(coeffs: HydroCoefficients,
                                   amplitude: float, mode: int,
                                   tolerance: float) -> list:
    """Criterion 7: stored diffusion values against the two-atom enumeration
    for the stored label, within `tolerance` at every entry.

    A relabelled field (values computed for one collision kind, flagged as
    the other) fails here: the b-dependent term differs by a^2/2 E[e x e].
    """
    oracle = closed_form_two_point_diffusion(amplitude, mode, coeffs.collision,
                                             coeffs.diffusion.grid)
    excess = float(np.max(np.abs(coeffs.diffusion.values - oracle.values)
                          - tolerance))
    return [CheckResult(f"diffusion closed form ({coeffs.collision})",
                        excess <= 0.0, excess, 0.0,
                        "max of |K - enumeration| - tolerance")]


def check_enhancement(coeffs: HydroCoefficients, cov: CovOperator,
                      strato_bound) -> list:
    """Criteria 7 and 8: K - Id and K - Id - sum phi phi^T nonnegative at
    every grid point, the Ito/Stratonovich split consistent, and for
    velocity diffusion the Stratonovich matrix within strato_bound of Id."""
    rep = verify_enhancement(coeffs, cov)
    c, tol = coeffs.collision, rep.tolerance
    out = [CheckResult(f"K - Id nonnegative ({c})",
                       rep.min_eig_over_base >= -tol, rep.min_eig_over_base,
                       -tol, "min eigenvalue"),
           CheckResult(f"K - Id - noise nonnegative ({c})",
                       rep.min_eig_over_noise >= -tol,
                       rep.min_eig_over_noise, -tol, "min eigenvalue"),
           CheckResult(f"Ito/Stratonovich split ({c})",
                       rep.consistency_gap <= tol, rep.consistency_gap, tol)]
    if c == FP:
        dev = float(np.max(np.abs(rep.strato_diffusion.values[0, 0] - 1.0)))
        out.append(CheckResult("Stratonovich degeneracy (fp)",
                               dev <= strato_bound, dev, strato_bound,
                               "max |K_strato - Id|"))
    return out


def check_spde_suite(coeffs: HydroCoefficients, cov: CovOperator, n_qv,
                     qv_bound, seed, n_workers: int = 1) -> list:
    """Criterion 9: heat-equation oracle, mass at every checkpoint,
    linearity under shared noise, and the quadratic variation of <rho, xi>
    over n_qv realizations (its blocks across `n_workers` processes)."""
    grid = coeffs.diffusion.grid
    n = grid.dim
    ident = replace(coeffs, drift=TorusField.zeros(grid, 1),
                    diffusion=closed_form_two_point_diffusion(
                        0.0, 1, coeffs.collision, grid))
    rho0 = TorusField.from_function(
        grid, 0, lambda *xs: 1.0 + np.cos(2 * np.pi * xs[0]))
    sol = mean_equation_solve(ident, rho0, 0.05, 1e-5)
    expected = 0.5 * np.exp(-4 * np.pi**2 * 0.05)
    heat_rel = abs(abs(sol.spectrum()[(1,) + (0,) * (n - 1)]) - expected) \
        / expected

    one = TorusField.constant(grid, 1.0)
    res = run_ensemble(coeffs, cov, rho0, 0.005, 1e-5, 4,
                       seed=(seed, SPDE_MASS), xi_fields=[one])
    mass_dev = float(np.max(np.abs(res.samples[:, :, 0]
                                   - pairing(rho0, one))))

    rho_b = TorusField.from_function(
        grid, 0, lambda *xs: 0.4 - 0.2 * np.sin(2 * np.pi * xs[0]))
    kw = dict(horizon=0.005, dt=1e-5, n_realizations=4,
              seed=(seed, SPDE_LINEARITY))
    ra, rb, rc = [run_ensemble(coeffs, cov, rho, **kw)
                  for rho in (rho0, rho_b, 2.0 * rho0 + (-1.0) * rho_b)]
    lin_dev = float(np.max(np.abs(
        rc.mean_hat[-1] - 2.0 * ra.mean_hat[-1] + rb.mean_hat[-1])))

    xi = TorusField.from_function(
        grid, 0, lambda *xs: np.sin(2 * np.pi * xs[0]) / (2 * np.pi))
    qv = quadratic_variation_check(coeffs, cov, one, xi, 0.005, 1e-5, n_qv,
                                   seed=(seed, SPDE_QV), n_workers=n_workers)
    return [CheckResult("heat-equation oracle", heat_rel < 1e-4, heat_rel,
                        1e-4, "relative error of the decaying mode"),
            CheckResult("mass conservation", mass_dev < 1e-10, mass_dev,
                        1e-10, "every checkpoint"),
            CheckResult("linearity under shared noise", lin_dev < 1e-10,
                        lin_dev, 1e-10),
            CheckResult("quadratic variation", qv.mean_relative_gap < qv_bound,
                        qv.mean_relative_gap, qv_bound,
                        f"mean relative gap, {n_qv} realizations")]


def check_mean_equation(coeffs: HydroCoefficients, cov: CovOperator,
                        horizon, dt, n_realizations, n_sigma, seed) -> list:
    """Criterion 10: the SPDE ensemble mean at the horizon against the
    drift-diffusion solve of `mean_equation_solve`, both from the default
    initial density, in the H^-1 norm, within n_sigma standard errors
    aggregated with the same H^-1 weights."""
    grid = coeffs.diffusion.grid
    rho0 = default_initial_density(grid)
    res = run_ensemble(coeffs, cov, rho0, horizon, dt, n_realizations,
                       seed=(seed, MEAN_EQUATION))
    det = mean_equation_solve(coeffs, rho0, horizon, dt)
    dist = sobolev_norm(res.mean_field(grid) - det, -1.0)
    weights = (1.0 + grid.laplace_symbol()) ** (-1.0)
    se = float(np.sqrt(np.sum(weights * res.var_hat[-1] / n_realizations)))
    return [CheckResult("ensemble mean vs drift solve",
                        dist < n_sigma * se, dist, n_sigma * se,
                        f"H^-1 distance, bound {n_sigma:g} se at "
                        f"{n_realizations} realizations")]


def check_corrector_scaling(model: ForceFieldModel, collision, epsilons,
                            horizon, dt_factor, n_particles, n_paths,
                            n_checkpoints, exponent_range, seed) -> list:
    """Criterion 11: the corrector theta^eps vanishes like eps.

    For each eps, n_paths runs of n_particles particles, each run on its
    own force path, give the mean over runs of sup_t ||theta^eps||_{H^-1}
    over n_checkpoints + 1 times; the exponent of a log-log fit of these
    over eps must lie in exponent_range.  Observed is how far it lies
    outside.  Run p at eps index i draws its path from (seed,
    CORRECTOR_SCALING, i, PATH, p) and its particles from (...,
    PARTICLES, p).  The corrector takes the exact R0 of the force sample
    (`run_rescaled`), so the check runs for either law; the validation
    suite runs it for the two-point law, at which its sizes are pinned.
    """
    if len(epsilons) < 2:
        raise ValueError("need at least two epsilon values for an exponent")
    rho0 = default_initial_density(model.grid)
    sup_norms = []
    for i, eps in enumerate(epsilons):
        cfg = KineticRunConfig(collision, eps, horizon, dt_factor * eps**2,
                               n_particles, model.grid)
        key = (seed, CORRECTOR_SCALING, i)
        sups = []
        for p in range(n_paths):
            path = generate_path(model, cfg.path_horizon,
                                 seed=substream(key, PATH, p))
            run = run_rescaled(cfg, path, rho0, substream(key, PARTICLES, p),
                               n_checkpoints)
            sups.append(run.corrector_norms.max())
        sup_norms.append(np.mean(sups))
    slope = np.polyfit(np.log(epsilons), np.log(sup_norms), 1)[0]
    lo, hi = exponent_range
    return [CheckResult(
        "corrector scaling exponent", lo <= slope <= hi,
        max(lo - slope, slope - hi), 0.0,
        f"fitted exponent {slope:.3f} in [{lo:g}, {hi:g}]; mean sup_t "
        f"H^-1 norm {', '.join(f'{v:.4f}' for v in sup_norms)} at eps "
        f"{', '.join(f'{e:g}' for e in epsilons)}, {n_paths} paths x "
        f"{n_particles} particles")]


def check_convergence_trend(cfg: ExperimentConfig, coeffs: HydroCoefficients,
                            cov: CovOperator) -> list:
    """Criterion 12: the per-xi mean and variance gaps of
    `convergence_study(cfg, coeffs, cov)` fall over the eps sweep up to one
    combined standard error.  Observed is the worst gap increase beyond
    that slack (`_trend_excess`); the detail lists the gaps per eps."""
    rep = convergence_study(cfg, coeffs, cov)
    out = []
    for name, excess, gaps in (
            ("mean", rep.mean_trend_excess, rep.mean_gaps),
            ("variance", rep.var_trend_excess, rep.var_gaps)):
        rows = "; ".join(f"eps={eps:g}: " + ", ".join(f"{g:.4g}" for g in row)
                         for eps, row in zip(rep.epsilons, gaps))
        out.append(CheckResult(
            f"{name}-gap trend", excess <= 0.0, excess, 0.0,
            f"gap increase - 1 se; gaps of {', '.join(rep.xi_names)} at "
            f"{rows}"))
    return out


def validation_suite(cfg: ExperimentConfig) -> ValidationReport:
    """Run the checks of acceptance criteria 1-11 at desk sizes taken from
    the config.  Criterion 12 is the `converge` stage's job."""
    cfg.validate()
    grid = TorusGrid(cfg.dim, cfg.grid_m)
    model = build_model(cfg)
    seed, amp, mode = cfg.seed, cfg.amplitude, cfg.mode
    draws = draw_stationary(model, grid)
    coeffs = {c: compute_coefficients(draws, c) for c in (LB, FP)}
    cov = compute_cov_operator(draws)
    # (two-point law only, check, desk sizes and bounds), criteria 1-11
    table = [
        (False, check_gaussian_identities,
         dict(n_shifts=6, bound=1e-6, seed=seed)),
        (True, check_resolvent_closed_forms, dict(model=model, seed=seed)),
        (False, check_moment_evolution,
         dict(grid=grid, amplitude=amp,
              n_particles=min(cfg.n_particles * 2, 40_000), dt=0.004,
              n_sigma=3.0, dt_allowance=2.0, seed=seed)),
        (True, check_invariant_second_moment,
         dict(model=model, amplitude=amp, mode=mode,
              n_paths=max(cfg.n_paths // 5, 200), n_sigma=3.0, seed=seed)),
        (True, check_sympos,
         dict(model=model, n_paths=max(cfg.n_paths // 3, 500), n_mc=500,
              n_sigma=3.0, seed=seed)),
        (False, check_cov_operator,
         dict(model=model, cov=cov, trace_slack=1e-12)),
        (True, check_leading_pair, dict(cov=cov, amplitude=amp, mode=mode)),
    ]
    for c in (LB, FP):
        table += [
            (True, check_coefficients_closed_form,
             dict(coeffs=coeffs[c], amplitude=amp, mode=mode,
                  tolerance=1e-9)),
            (False, check_enhancement,
             dict(coeffs=coeffs[c], cov=cov, strato_bound=1e-12)),
        ]
    table += [
        (False, check_spde_suite,
         dict(coeffs=coeffs[cfg.collision], cov=cov, n_qv=128, qv_bound=0.10,
              seed=seed, n_workers=cfg.threads)),
        (False, check_mean_equation,
         dict(coeffs=coeffs[cfg.collision], cov=cov, horizon=cfg.horizon,
              dt=cfg.dt_spde, n_realizations=cfg.n_spde_realizations,
              n_sigma=4.0, seed=seed)),
        (True, check_corrector_scaling,
         dict(model=model, collision=cfg.collision, epsilons=cfg.epsilons,
              # criterion 11 keeps dt = 0.1 eps^2: `micro_dt` would change
              # what its fitted exponent measures (ROADMAP item 7)
              horizon=cfg.horizon, dt_factor=0.1,
              n_particles=min(cfg.n_particles * 10, 20_000), n_paths=3,
              n_checkpoints=cfg.n_checkpoints, exponent_range=(0.7, 1.3),
              seed=seed)),
    ]
    renewal = cfg.model_kind == "renewal"
    report = ValidationReport()
    for two_point_only, check, kwargs in table:
        if renewal or not two_point_only:
            report.checks.extend(check(**kwargs))
    return report
