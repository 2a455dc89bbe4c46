"""Command-line entry points for the experiment pipeline.

Subcommands: coeffs, simulate-kinetic, simulate-spde, converge, validate.
Every stage reads a config file, honours --seed/--out/--threads overrides,
writes CSV outputs plus a plain-text report, and records a manifest with
file checksums.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from . import __version__
from .coefficients import OU_NODES
from .config import ExperimentConfig, RunManifest
from .experiment import (build_model, coefficients_stage, convergence_study,
                         default_initial_density, default_test_functions,
                         load_coefficient_stage, validation_suite)
from .forcing import generate_path
from .kinetic import KineticRunConfig, run_rescaled
from .rng import KINETIC_PARTICLES, KINETIC_PATH, substream
from .spde import run_ensemble, stability_limit
from .table import write_table
from .torus import TorusGrid, sobolev_norm


def _load_config(args) -> ExperimentConfig:
    cfg = ExperimentConfig.load(args.config) if args.config \
        else ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.out is not None:
        cfg.out_dir = args.out
    if args.threads is not None:
        cfg.threads = args.threads
    cfg.validate()
    os.makedirs(cfg.out_dir, exist_ok=True)
    return cfg


def _step_line(kcfg: KineticRunConfig, realizations: int,
               seconds: float) -> str:
    """One eps's micro step and particle throughput, for the reports."""
    dt, steps = kcfg.step_dt, kcfg.n_steps
    particle_steps = realizations * kcfg.n_particles * steps
    return (f"eps={kcfg.epsilon:g}: micro dt {dt:.6g}, {steps} steps, "
            f"{kcfg.epsilon * dt:.4g} per step at unit speed, "
            f"{particle_steps} particle-steps in {seconds:.3g} s "
            f"({particle_steps / seconds:.3g} particle-steps/s)")


def _modes_line(stepped: int, grid: TorusGrid) -> str:
    """How many half-spectrum modes the SPDE stepped, for the reports."""
    half = grid.size // grid.m * (grid.m // 2 + 1)
    return (f"modes stepped per realization: {stepped} of {half}, "
            f"the rest exactly zero")


def _report(cfg, name, lines):
    path = os.path.join(cfg.out_dir, name)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
    for line in lines:
        print(line)
    return path


def cmd_coeffs(args) -> int:
    cfg = _load_config(args)
    _, cov, report, trace_ok = coefficients_stage(cfg)
    rule = ("the law's atoms" if cfg.model_kind == "renewal" else
            "Gauss-Legendre {} on [-R, R], Gauss-Laguerre {} per tail"
            .format(*OU_NODES))
    lines = [
        f"stage coeffs (kinlim {__version__})",
        f"collision={cfg.collision} amplitude={cfg.amplitude} "
        f"grid_m={cfg.grid_m}",
        f"stationary nodes {cov.n_nodes} ({rule}, exact)",
        f"noise rank {cov.rank}, trace {cov.trace:.6g}, "
        f"dropped tail {cov.dropped_tail:.3g}",
        f"covariance QR width {cov.qr_width} (kernel side "
        f"{cov.grid.dim * cov.grid.size}, one column per basis field)",
        f"enhancement: min eig(K - Id) = {report.min_eig_over_base:.3e}",
        f"enhancement: min eig(K - Id - noise) = "
        f"{report.min_eig_over_noise:.3e}",
        f"Ito/Stratonovich split gap = {report.consistency_gap:.3e} "
        f"(tol {report.tolerance:.3e})",
        f"enhancement checks {'PASS' if report.passed else 'FAIL'}",
        f"trace bound trace <= N*R "
        f"{'holds' if trace_ok else 'EXCEEDED (flag only)'}",
    ]
    _report(cfg, "report_coeffs.txt", lines)
    return 0 if report.passed else 1


def cmd_simulate_kinetic(args) -> int:
    cfg = _load_config(args)
    grid = TorusGrid(cfg.dim, cfg.grid_m)
    model = build_model(cfg)
    rho0 = default_initial_density(grid)
    manifest = RunManifest(cfg.content_hash(), __version__, "kinetic",
                           {"kinetic": cfg.seed})
    lines = [f"stage simulate-kinetic (kinlim {__version__})"]
    for i, eps in enumerate(cfg.epsilons):
        kcfg = KineticRunConfig(cfg.collision, eps, cfg.horizon,
                                cfg.micro_dt(eps), cfg.n_particles, grid)
        start = time.perf_counter()
        path = generate_path(model, kcfg.path_horizon,
                             seed=substream(cfg.seed, KINETIC_PATH, i))
        run = run_rescaled(kcfg, path, rho0,
                           substream(cfg.seed, KINETIC_PARTICLES, i),
                           n_checkpoints=cfg.n_checkpoints)
        seconds = time.perf_counter() - start
        series_path = os.path.join(cfg.out_dir, f"kinetic_eps{eps}_series.csv")
        write_table(series_path, ["t", "J0", "J1", "J2", "J3", "rho_hminus1",
                                  "corrector_hminus1"],
                    [[t, *est.totals, sobolev_norm(est.rho, -1.0), c]
                     for t, est, c in zip(run.times, run.estimates,
                                          run.corrector_norms)], 10)
        manifest.add_file(series_path)
        for j, (t, est) in enumerate(zip(run.times, run.estimates)):
            cp_path = os.path.join(cfg.out_dir,
                                   f"kinetic_eps{eps}_cp{j:02d}.csv")
            _write_checkpoint(cp_path, grid, t, est)
            manifest.add_file(cp_path)
        lines.append(f"eps={eps}: {len(run.times)} checkpoints, "
                     f"sup corrector H^-1 = {run.corrector_norms.max():.4g}")
        lines.append(_step_line(kcfg, 1, seconds))
    manifest.save(os.path.join(cfg.out_dir, "manifest_kinetic.txt"))
    _report(cfg, "report_kinetic.txt", lines)
    return 0


def _write_checkpoint(path, grid, t, est):
    columns = [c.reshape(1, -1) for c in grid.coords()] + [
        est.rho.physical().reshape(1, -1),
        est.current.physical().reshape(grid.dim, -1)]
    write_table(path, [f"x{i}" for i in range(grid.dim)] + ["rho"]
                + [f"J{i}" for i in range(grid.dim)],
                np.concatenate(columns).T, 10,
                dict(t=t, dim=grid.dim, m=grid.m))


def cmd_simulate_spde(args) -> int:
    start = time.perf_counter()
    cfg = _load_config(args)
    grid = TorusGrid(cfg.dim, cfg.grid_m)
    coeffs, cov = load_coefficient_stage(cfg.out_dir)
    rho0 = default_initial_density(grid)
    xi = default_test_functions(grid)
    res = run_ensemble(coeffs, cov, rho0, cfg.horizon, cfg.dt_spde,
                       cfg.n_spde_realizations, seed=cfg.seed,
                       xi_fields=[f for _, f in xi],
                       n_checkpoints=cfg.n_checkpoints,
                       n_workers=cfg.threads)
    out_path = os.path.join(cfg.out_dir, "spde_ensemble.csv")
    n_modes = min(8, cfg.grid_m // 2)
    header = ["t"] + [f"mean_re_k{k}" for k in range(n_modes)] \
        + [f"var_k{k}" for k in range(n_modes)] \
        + [f"{name}_q{q}" for name, _ in xi for q in (10, 50, 90)]
    # modes (k, 0, ...) along the forced axis
    axis_modes = (slice(0, n_modes),) + (0,) * (grid.dim - 1)
    rows = [[t, *res.mean_hat[i][axis_modes].real, *res.var_hat[i][axis_modes],
             *np.percentile(res.samples[i], [10, 50, 90], axis=0).T.ravel()]
            for i, t in enumerate(res.times)]
    write_table(out_path, header, rows, 10)
    manifest = RunManifest(cfg.content_hash(), __version__, "spde",
                           {"spde": cfg.seed})
    manifest.add_file(out_path)
    manifest.save(os.path.join(cfg.out_dir, "manifest_spde.txt"))
    elapsed = time.perf_counter() - start
    lines = [f"stage simulate-spde (kinlim {__version__})",
             f"{cfg.n_spde_realizations} realizations, noise rank "
             f"{res.noise_rank}, min rho {res.min_rho:.4g}",
             f"dt_spde / stability_limit = "
             f"{cfg.dt_spde / stability_limit(coeffs):.4g}",
             f"{res.n_steps} steps, {res.products_per_step} shifted "
             f"products per step",
             f"coefficient modes kept {res.coefficient_modes}, largest "
             f"dropped |c|/max|c| {res.dropped_tail:.2g}",
             f"{res.block_realizations} realizations per block, "
             f"{res.blocks_per_step} blocks per step",
             _modes_line(res.stepped_modes, grid),
             f"stage {elapsed:.3g} s, "
             f"{cfg.n_spde_realizations * res.n_steps / elapsed:.4g} "
             f"realization-steps/s",
             f"wrote {out_path}"]
    _report(cfg, "report_spde.txt", lines)
    return 0


def cmd_converge(args) -> int:
    cfg = _load_config(args)
    coeffs, cov = load_coefficient_stage(cfg.out_dir)
    rep = convergence_study(cfg, coeffs, cov)
    table_path = os.path.join(cfg.out_dir, "converge_table.csv")
    rows = rep.table_rows()
    write_table(table_path, list(rows[0]), [list(r.values()) for r in rows],
                8)
    lines = [f"stage converge (kinlim {__version__})",
             f"epsilons: {rep.epsilons}",
             f"law samples: kinetic {cfg.n_realizations} x "
             f"{cfg.n_particles} particles, spde {cfg.n_spde_realizations}",
             _modes_line(rep.spde_stepped_modes,
                         TorusGrid(cfg.dim, cfg.grid_m))]
    lines += [_step_line(kcfg, cfg.n_realizations, seconds)
              for kcfg, seconds in rep.kinetic_runs]
    spde_steps = cfg.n_spde_realizations * rep.spde_steps
    lines.append(f"spde: {cfg.n_spde_realizations} realizations x "
                 f"{rep.spde_steps} steps in {rep.spde_seconds:.3g} s "
                 f"({spde_steps / rep.spde_seconds:.3g} "
                 f"realization-steps/s)")
    for row in rows:
        lines.append(
            f"eps={row['epsilon']:.4g} xi={row['xi']}: "
            f"mean gap {row['mean_gap']:.4g} (se {row['mean_gap_se']:.2g}), "
            f"var gap {row['var_gap']:.4g} (se {row['var_gap_se']:.2g}), "
            f"KS {row['ks_stat']:.3f}")
    lines.append(f"mean-gap trend monotone (1 se slack): "
                 f"{'PASS' if rep.mean_trend_ok else 'FAIL'}")
    lines.append(f"variance-gap trend monotone (1 se slack): "
                 f"{'PASS' if rep.var_trend_ok else 'FAIL'}")
    manifest = RunManifest(cfg.content_hash(), __version__, "converge",
                           {"converge": cfg.seed})
    manifest.add_file(table_path)
    manifest.save(os.path.join(cfg.out_dir, "manifest_converge.txt"))
    _report(cfg, "report_converge.txt", lines)
    return 0 if (rep.mean_trend_ok and rep.var_trend_ok) else 1


def cmd_validate(args) -> int:
    cfg = _load_config(args)
    report = validation_suite(cfg)
    lines = [f"stage validate (kinlim {__version__})"] + report.lines()
    lines.append(f"validation {'PASS' if report.passed else 'FAIL'}")
    _report(cfg, "report_validate.txt", lines)
    return 0 if report.passed else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="kinlim",
        description="Forced kinetic dynamics and their diffusion limit")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name, fn in [("coeffs", cmd_coeffs),
                     ("simulate-kinetic", cmd_simulate_kinetic),
                     ("simulate-spde", cmd_simulate_spde),
                     ("converge", cmd_converge),
                     ("validate", cmd_validate)]:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, default=None)
        p.add_argument("--seed", type=int, default=None)
        p.add_argument("--out", type=str, default=None)
        p.add_argument("--threads", type=int, default=None)
        p.set_defaults(func=fn)
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
