import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from kinlim import kinetic
from kinlim.equilibrium import FP, LB
from kinlim.forcing import (PathBlock, constant_two_point_renewal,
                            generate_path, ou_single_mode, two_point_renewal,
                            zero_renewal)
from kinlim.kinetic import (KineticRunConfig, ParticleEnsemble,
                            corrector_decomposition, functional_samples,
                            moments, run_rescaled, step_micro)
from kinlim.rng import substream
from kinlim.torus import TorusField, TorusGrid, pairing

A = 0.5
ROOT = Path(__file__).resolve().parents[1]

# Hashes of the Fourier moments in 1-D (64 points: criterion 11's 50000
# particles, and 2000, which leave the last particle block part-filled) and
# 2-D (32x32: 10^4 particles, and 500, 700 and 963, at which one OpenBLAS
# matrix product over all particles gives different bytes at 1 and 2
# threads), and of the corrector norms of a short tracked run, printed by a
# process whose BLAS thread count is fixed by the environment.
BLAS_THREADS_PROBE = """
import hashlib
import numpy as np
from kinlim.forcing import generate_path, two_point_renewal
from kinlim.kinetic import (KineticRunConfig, ParticleEnsemble, moments,
                            run_rescaled)
from kinlim.rng import substream
from kinlim.torus import TorusField, TorusGrid

def digest(*arrays):
    return hashlib.sha256(b"".join(a.tobytes() for a in arrays)).hexdigest()

for dim, m, n in ((1, 64, 50_000), (1, 64, 2_000), (2, 32, 10_000),
                  (2, 32, 500), (2, 32, 700), (2, 32, 963)):
    rng = substream(7, dim)
    ens = ParticleEnsemble(rng.random((n, dim)), rng.standard_normal((n, dim)),
                           np.full(n, 1.0 / n), 0.5)
    est = moments(ens, TorusGrid(dim, m))
    print(dim, n, digest(est.rho.values, est.current.values,
                         est.pressure.values, est.totals))
grid = TorusGrid(1, 64)
cfg = KineticRunConfig("lb", 0.5, 0.01, 0.025, 50_000, grid)
path = generate_path(two_point_renewal(grid, 0.5), cfg.path_horizon,
                     seed=substream(7, 3))
rho0 = TorusField.from_function(
    grid, 0, lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x))
run = run_rescaled(cfg, path, rho0, substream(7, 4), n_checkpoints=2)
print("corrector", digest(run.corrector_norms))
"""


@pytest.fixture
def grid():
    return TorusGrid(1, 64)


def zero_path(grid, horizon, t_start=0.0):
    return generate_path(zero_renewal(grid), horizon, seed=0, t_start=t_start)


def uniform_ensemble(n, eps, seed, dim=1, velocities=None):
    rng = substream(seed)
    pos = rng.random((n, dim))
    vel = rng.standard_normal((n, dim)) if velocities is None else velocities
    return ParticleEnsemble(pos, vel, np.full(n, 1.0 / n), eps)


def test_config_validation(grid):
    with pytest.raises(ValueError):
        KineticRunConfig(LB, 0.5, 0.05, dt=0.05, n_particles=10, grid=grid)
    with pytest.raises(ValueError):
        KineticRunConfig("xx", 0.5, 0.05, dt=0.01, n_particles=10, grid=grid)


def test_zero_velocity_zero_force_positions_fixed(grid):
    n = 1000
    ens = uniform_ensemble(n, 0.5, 1, velocities=np.zeros((n, 1)))
    block = PathBlock([zero_path(grid, 1.0)])
    out = step_micro(ens, block, 0.02, substream(2), LB)
    assert np.array_equal(out.positions, ens.positions)


def test_fp_velocity_marginal_relaxes_to_maxwellian(grid):
    # E = 0: velocity variance within [0.94, 1.06] after micro time 10
    n = 100_000
    rng = substream(3)
    ens = ParticleEnsemble(rng.random((n, 1)), np.full((n, 1), 2.0),
                           np.full(n, 1.0 / n), 1.0)
    block = PathBlock([zero_path(grid, 10.0)])
    dt = 0.05
    for _ in range(200):
        ens = step_micro(ens, block, dt, rng, FP)
    var = ens.velocities.var()
    assert 0.94 < var < 1.06
    assert abs(ens.velocities.mean()) < 4 / np.sqrt(n)


def test_lb_jump_fraction(grid):
    # fraction of particles that ever jumped by micro time t is 1 - exp(-t)
    n = 100_000
    rng = substream(4)
    v0 = np.full((n, 1), 5.0)  # marker velocity, overwritten on first jump
    ens = ParticleEnsemble(rng.random((n, 1)), v0.copy(),
                           np.full(n, 1.0 / n), 1.0)
    block = PathBlock([zero_path(grid, 2.0)])
    t, dt = 0.7, 0.005
    for _ in range(int(round(t / dt))):
        ens = step_micro(ens, block, dt, rng, LB)
    jumped = np.mean(ens.velocities[:, 0] != 5.0)
    # per-step no-jump probability exp(-dt) compounds to exp(-t) exactly
    expected = -np.expm1(-t)
    se = np.sqrt(expected * (1 - expected) / n)
    assert abs(jumped - expected) < 3 * se


def test_path_coverage_error(grid):
    ens = uniform_ensemble(100, 0.5, 5)
    block = PathBlock([zero_path(grid, 0.01)])
    with pytest.raises(ValueError):
        step_micro(ens, block, 0.02, substream(6), LB)


def test_moments_single_particle(grid):
    # a particle of weight w = 1 on a grid node: each of the 2 m/4 + 1 = 33
    # retained modes has phase 1 there, so rho = 33 w and the pressure
    # 33 w v0^2 = 74.25 at the node
    v0 = np.array([[1.5]])
    pos = np.array([[0.25]])
    ens = ParticleEnsemble(pos, v0, np.array([1.0]), 1.0)
    est = moments(ens, grid)
    assert est.totals[0] == pytest.approx(1.0)
    assert est.totals[1] == pytest.approx(1.5)
    node = int(0.25 * grid.m)
    assert est.pressure.values[0, 0, node] == pytest.approx(33 * 1.5**2)
    assert est.rho.values[node] == pytest.approx(33.0)
    assert pairing(est.rho, TorusField.constant(grid, 1.0)) == pytest.approx(1.0)


def test_moments_maxwellian_second_moment_is_identity(grid):
    n = 1_000_000
    ens = uniform_ensemble(n, 0.5, 7)
    est = moments(ens, grid)
    k_global = est.pressure.physical().mean(axis=-1)  # integral over x
    se = np.sqrt(2.0 / n)
    assert abs(k_global[0, 0] - 1.0) < 3 * se


def test_moments_zero_velocities(grid):
    n = 1000
    ens = uniform_ensemble(n, 0.5, 8, velocities=np.zeros((n, 1)))
    est = moments(ens, grid)
    assert np.max(np.abs(est.current.values)) == 0.0
    assert np.max(np.abs(est.pressure.values)) == 0.0


def test_moments_fourier_estimator_mass_exact(grid):
    ens = uniform_ensemble(5000, 0.5, 9)
    est = moments(ens, grid)
    one = TorusField.constant(grid, 1.0)
    assert pairing(est.rho, one) == pytest.approx(ens.mass, abs=1e-12)


def test_fourier_moments_do_not_depend_on_blas_threads():
    outputs = []
    for threads in ("1", "2"):
        env = dict(os.environ, OMP_NUM_THREADS=threads,
                   OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
        proc = subprocess.run([sys.executable, "-c", BLAS_THREADS_PROBE],
                              env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert len(outputs[0].splitlines()) == 7
    assert outputs[0] == outputs[1]


def test_fourier_moments_hold_no_particles_by_modes_temporary():
    # 2-D, m=32, default kmax=8: a 10^4 x 17^2 complex phase matrix would
    # take 46 MB; a per-axis table is at most 10^4 x 17 (2.7 MB)
    grid2 = TorusGrid(2, 32)
    ens = uniform_ensemble(10_000, 0.5, 64, dim=2)
    moments(ens, grid2)  # first-call set-up untraced
    tracemalloc.start()
    try:
        moments(ens, grid2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16e6


@pytest.mark.parametrize("n", [10_000, 100_000])
def test_fourier_moments_memory_does_not_grow_with_particles(n):
    # 2-D, m=32: particles go in blocks of 16384 // 153 = 107, so one call
    # holds one block's tables and value rows, never an array over all
    # particles (one (n, 2) float array takes 1.6 MB at n = 10^5)
    grid2 = TorusGrid(2, 32)
    ens = uniform_ensemble(n, 0.5, 65, dim=2)
    moments(ens, grid2)
    tracemalloc.start()
    try:
        moments(ens, grid2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def test_sharp_density_refused_by_rejection_sampler():
    # grid max 1.636 at m=16, envelope 1.05 x 1.636 = 1.718, true max 1.9:
    # candidates above the envelope would be accepted as if at 1.718
    grid2 = TorusGrid(2, 16)
    rho = TorusField.from_function(
        grid2, 0, lambda x0, x1: 1.0 + 0.9 * np.cos(8 * np.pi * x0 - np.pi / 4))
    with pytest.raises(ValueError, match="envelope"):
        kinetic.sample_positions(rho, 1000, substream(66))


@pytest.mark.parametrize("dim", [1, 2])
def test_zero_density_refused_by_sampler(dim):
    # a density with no positive mass once gave NaN positions in 1-D and
    # uniform ones in 2-D (a zero envelope accepts every candidate)
    zero = TorusField.zeros(TorusGrid(dim, 16))
    with pytest.raises(ValueError, match="no positive"):
        kinetic.sample_positions(zero, 3, substream(67))


def test_run_rescaled_uniform_equilibrium(grid):
    # E = 0, uniform initial density: the density stays uniform up to
    # binomial bin noise, and mass is conserved exactly
    cfg = KineticRunConfig(LB, 0.5, 0.02, dt=0.02, n_particles=50_000,
                           grid=grid)
    model = zero_renewal(grid)
    path = generate_path(model, cfg.micro_horizon + 0.1, seed=1)
    rho0 = TorusField.constant(grid, 1.0)
    run = run_rescaled(cfg, path, rho0, seed=10, n_checkpoints=4)
    one = TorusField.constant(grid, 1.0)
    for est in run.estimates:
        assert pairing(est.rho, one) == pytest.approx(1.0, abs=1e-12)
    final = run.estimates[-1].rho.physical()
    noise = 4 * np.sqrt(grid.m / cfg.n_particles)
    assert np.max(np.abs(final - 1.0)) < noise
    # third total moment stays bounded by a fixed multiple of its start
    j3_0 = run.estimates[0].totals[3] + run.estimates[0].totals[0]
    for est in run.estimates:
        assert est.totals[3] <= 10.0 * j3_0


def test_fp_exact_gaussian_kernel(grid):
    # frozen space-homogeneous force: (X, V) after micro time t is Gaussian
    # with mean and covariance of the explicit Ornstein-Uhlenbeck solution
    e0 = 0.3
    model = constant_two_point_renewal(grid, e0)
    # force the +amplitude atom by picking a path whose first draw is +
    path = None
    for s in range(10):
        cand = generate_path(model, 1.0, seed=s)
        if cand.value_at(0.0).field.physical()[0, 0] > 0 and \
                len(cand.times) == 2:  # no jumps within horizon
            path = cand
            break
    assert path is not None
    n, t, dt = 200_000, 0.25, 0.002
    x0, w0 = 0.5, 0.0
    ens = ParticleEnsemble(np.full((n, 1), x0), np.full((n, 1), w0),
                           np.full(n, 1.0 / n), 1.0)
    rng = substream(31)
    block = PathBlock([path])
    for _ in range(int(round(t / dt))):
        ens = step_micro(ens, block, dt, rng, FP)
    disp = ens.positions[:, 0] - x0  # no wraps: 5+ sigma margin
    vel = ens.velocities[:, 0]
    # exact moments for dV = (e0 - V)dt + sqrt(2) dB from rest
    mean_v = e0 * (1 - np.exp(-t))
    mean_x = e0 * (t - (1 - np.exp(-t)))
    var_v = 1 - np.exp(-2 * t)
    var_x = 2 * (t - 2 * (1 - np.exp(-t)) + 0.5 * (1 - np.exp(-2 * t)))
    cov_xv = 2 * ((1 - np.exp(-t)) - 0.5 * (1 - np.exp(-2 * t)))
    se = 1.0 / np.sqrt(n)
    assert abs(vel.mean() - mean_v) < 3 * se * np.sqrt(var_v) + 3 * dt * e0
    assert abs(disp.mean() - mean_x) < 3 * se * np.sqrt(var_x) + 3 * dt * t
    assert abs(vel.var() - var_v) < 3 * var_v * np.sqrt(2.0 / n) + 3 * dt
    assert abs(disp.var() - var_x) < 3 * var_x * np.sqrt(2.0 / n) + 3 * dt * var_x ** 0.5
    emp_cov = np.mean((disp - disp.mean()) * (vel - vel.mean()))
    assert abs(emp_cov - cov_xv) < 4 * np.sqrt(var_x * var_v / n) + 3 * dt * cov_xv


def test_corrector_trivial_cases(grid):
    model = two_point_renewal(grid, A)
    e = model.atoms[0]
    n = 4000
    ens = uniform_ensemble(n, 0.25, 41, velocities=np.zeros((n, 1)))
    est = moments(ens, grid)
    # J = 0 and e = 0: theta = 0, zeta = rho
    zero_e = TorusField.zeros(grid, 1)
    theta, zeta = corrector_decomposition(est, zero_e, 0.25)
    assert np.max(np.abs(theta.values)) < 1e-12
    assert np.max(np.abs(zeta.values - est.rho.values)) < 1e-12
    # constant J and rho with space-homogeneous e: divergence of a constant
    const_est = moments(
        ParticleEnsemble(np.linspace(0, 1, n, endpoint=False)[:, None],
                         np.ones((n, 1)), np.full(n, 1.0 / n), 0.25),
        grid)
    e_const = TorusField.constant(grid, np.array([0.7]))
    theta2, _ = corrector_decomposition(const_est, e_const, 0.25)
    assert np.max(np.abs(theta2.values)) < 1e-9


def test_corrector_scaling_smoke(grid):
    # sup_t ||theta^eps||_{H^-1} shrinks roughly linearly in eps
    model = two_point_renewal(grid, A)
    rho0 = TorusField.from_function(
        grid, 0, lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x))
    norms = {}
    for eps in (0.5, 0.25):
        cfg = KineticRunConfig(LB, eps, 0.02, dt=0.1 * eps**2,
                               n_particles=20_000, grid=grid)
        path = generate_path(model, cfg.micro_horizon + 1.0, seed=51)
        run = run_rescaled(cfg, path, rho0, seed=52, n_checkpoints=5)
        norms[eps] = run.corrector_norms.max()
    ratio = norms[0.5] / norms[0.25]
    assert 1.0 < ratio < 4.0


def test_equilibrium_invariance_both_collisions(grid):
    # E = 0, velocities from the Maxwellian: the empirical second moment
    # stays within 3 se of the identity at every checkpoint
    n = 50_000
    model = zero_renewal(grid)
    rho0 = TorusField.constant(grid, 1.0)
    for collision in (LB, FP):
        cfg = KineticRunConfig(collision, 0.5, 0.025, dt=0.025,
                               n_particles=n, grid=grid)
        path = generate_path(model, cfg.micro_horizon + 0.1, seed=71)
        run = run_rescaled(cfg, path, rho0, seed=72, n_checkpoints=4)
        se = np.sqrt(2.0 / n)
        for est in run.estimates:
            k_global = est.pressure.physical().mean(axis=-1)[0, 0]
            assert abs(k_global - 1.0) < 3 * se + 0.01


def test_functional_samples_same_for_any_worker_count(grid, monkeypatch):
    cfg = KineticRunConfig(LB, 0.5, 0.05, 0.025, 200, grid)
    model = two_point_renewal(grid, A)
    rho0 = TorusField.from_function(
        grid, 0, lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x))
    xi = [TorusField.from_function(grid, 0,
                                   lambda x: np.cos(2 * np.pi * x))]
    one = functional_samples(cfg, model, rho0, xi, 3, seed=4, n_workers=1)
    two = functional_samples(cfg, model, rho0, xi, 3, seed=4, n_workers=2)
    assert np.array_equal(one[0], two[0])
    assert np.array_equal(one[1], two[1])
    # two realizations per block: five realizations make three blocks, so
    # the two workers each step at least one of them
    monkeypatch.setattr(kinetic, "BLOCK_PARTICLES", 2 * cfg.n_particles)
    one = functional_samples(cfg, model, rho0, xi, 5, seed=4, n_workers=1)
    two = functional_samples(cfg, model, rho0, xi, 5, seed=4, n_workers=2)
    assert one[0].shape == (5, 1)
    assert np.array_equal(one[0], two[0])
    assert np.array_equal(one[1], two[1])


def test_functional_samples_rows_are_run_rescaled_functionals(grid,
                                                              monkeypatch):
    # with one realization per block, row r of functional_samples is the
    # functionals of run_rescaled's final ensemble on the path of stream
    # (seed, 11, r) and particle stream (seed, 12, r), bit for bit
    cfg = KineticRunConfig(FP, 0.5, 0.05, 0.025, 300, grid)
    monkeypatch.setattr(kinetic, "BLOCK_PARTICLES", cfg.n_particles)
    model = two_point_renewal(grid, A)
    rho0 = TorusField.from_function(
        grid, 0, lambda x: 1.0 + 0.5 * np.cos(2 * np.pi * x))
    xi = [TorusField.constant(grid, 1.0),
          TorusField.from_function(grid, 0, lambda x: np.sin(2 * np.pi * x))]
    samples, floors = functional_samples(cfg, model, rho0, xi, 3, seed=8)
    for r in range(3):
        path = generate_path(model, cfg.path_horizon,
                             seed=substream(8, 11, r))
        ens = run_rescaled(cfg, path, rho0, substream(8, 12, r),
                           n_checkpoints=2).ensemble
        for j, f in enumerate(xi):
            vals = f.eval_at(ens.positions)
            assert samples[r, j] == float(np.sum(ens.weights * vals))
            assert floors[r, j] == ens.mass**2 * float(vals.var(ddof=1)) \
                / ens.n_particles


@pytest.mark.parametrize("dim,kind", [(1, "renewal"), (1, "ou"),
                                      (2, "renewal")])
def test_block_step_particles_feel_their_own_path(dim, kind):
    # in one lb step of a block from rest, a particle that does not jump
    # ends at velocity dt * E_r(s, x), E_r the value of its own
    # realization's path at the step start
    grid = TorusGrid(dim, 16)
    model = (two_point_renewal(grid, A) if kind == "renewal"
             else ou_single_mode(grid, A))
    paths = [generate_path(model, 3.0, seed=substream(30, r))
             for r in range(6)]
    block = PathBlock(paths)
    n, dt = 50, 0.01
    pos = substream(31).random((block.size * n, dim))
    starts = [0.0, 0.7, 1.9, 2.5] + [float(p.times[1]) for p in paths[:2]]
    for s in starts:
        ens = ParticleEnsemble(pos, np.zeros(pos.shape),
                               np.full(pos.shape[0], 1.0 / n), 1.0, time=s)
        rng = substream(32)
        jumps = substream(32).random(pos.shape[0]) < -np.expm1(-dt)
        out = step_micro(ens, block, dt, rng, LB)
        assert out.n_particles == block.size * n
        for r, path in enumerate(paths):
            rows = slice(r * n, (r + 1) * n)
            want = dt * path.value_at(s).field.eval_at(pos[rows])
            stay = ~jumps[rows]
            assert np.array_equal(out.velocities[rows][stay], want[stay])
            assert np.array_equal(block.eval_at(s, pos)[rows],
                                  path.value_at(s).field.eval_at(pos[rows]))


def test_block_step_rejects_uneven_runs(grid):
    paths = [zero_path(grid, 1.0), zero_path(grid, 1.0)]
    with pytest.raises(ValueError):
        step_micro(uniform_ensemble(101, 0.5, 5), PathBlock(paths), 0.02,
                   substream(6), LB)
