"""Particle Monte Carlo for the rescaled forced kinetic dynamics.

One realization follows n particles (X_i, V_i) on the torus sharing a single
force path; conditionally on that path, the weighted empirical measure
approximates the phase-space density, so position functionals sample the
random density rho at fixed environment.  Micro (fast) time s relates to the
macroscopic clock through t = eps^2 s; positions advance by eps*V per unit
micro time.

A block of R realizations is stepped as one flat ParticleEnsemble of R*n
particles (realization r in rows r*n .. (r+1)*n - 1) with one force path per
realization (a `PathBlock`) and one random stream for the block.  Each step
finds every realization's force over the step in one bisection, evaluates
each distinct force field, up to sign, once on the particles that feel it
(realizations on the atoms +a and -a make one evaluation, negated on the
runs of -a), and draws the collision randomness once.  A single run
(`run_rescaled`) is a block of one.

Stepping is a splitting, vectorised over particles.  Positions take
explicit Euler, x + eps v dt, wrapped into [0,1) as x - floor(x) (the
bits of np.mod(x, 1) at a fraction of its cost).  Velocities are updated
exactly in time for the step-start position x.  With W_j[a, b] the signed
time integral of field j along the run's path (`PathBlock.pieces`), a
step [s, s + dt] gives:

* 'lb' (jumps): v + sum_j f_j(x) W_j[s, s + dt], or, for a jumper (its
  uniform u below 1 - exp(-dt)), a fresh Maxwellian plus sum_j f_j(x)
  W_j[s + dt - d, s + dt], d = -log1p(-u).  By time reversal, given a
  rate-1 redraw in the step, the age of the last one is the first arrival
  cut to [0, dt]; a redraw forgets the earlier ones, so several jumps in
  a step are exact too;
* 'fp' (diffusion): exp(-dt) v + sum_j f_j(x) int exp(-(s + dt - u))
  dW_j(u) + Gaussian noise of variance 1 - exp(-2 dt), the weight taken
  local to the step so that it cannot overflow at long micro horizons.

No stability bound limits dt; the error left is the frozen position, so
the configs size dt by the distance eps |v| dt a particle moves
(`ExperimentConfig.micro_dt`).

A step allocates its new positions and velocities and works in them in
place.  The wrap's scratch array takes the step's first draw
(`rng.random(n, out=...)`, the lb jump uniforms, the same numbers as
`rng.random(n)`; jumpers then draw their normals) or the fp noise.  Each
distinct field of the step is evaluated once per particle that feels it,
and the jumpers reuse those values.  The step checks only what it takes as
arguments (the collision, dt, the run split and the path span, the last
against two scalars the `PathBlock` caches); the weights and epsilon pass
on to the new ensemble unchecked (`ParticleEnsemble.advanced`).

`moments` estimates the density and current fields by the exact
Fourier sums of the per-particle values w and w V on the modes
max_d |k_d| <= m/4.  It goes through the particles in fixed blocks of
max(1, BLOCK_VALUES // W) particles, W the modes with k_N >= 0 per
particle (153 in 2-D at m=32, 17 in 1-D at m=64): a block's per-axis phase
tables (running products of one exponential per particle and axis), its
mode table, its value rows and its share of the |v|^m totals
are the only per-particle arrays, so memory stays O(BLOCK_VALUES) whatever
the particle count.  Each block's sum over particles is an `np.einsum` on
the real view of its mode table, which runs numpy's own loops and never
BLAS, and the block sums are added in block order.

`_evolve` is the one stepping loop: `run_rescaled`, `functional_samples`
and the moment-evolution check of `kinlim.experiment` all step through it.

Randomness is drawn from counter-based streams keyed by realization (force
paths) and by block (particles), and `functional_samples` forms its blocks
from the particle count alone, so ensembles are reproducible for any number
of workers (blocks are the parallel unit; reductions happen in realization
order), and moment sums do not depend on the BLAS thread count.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .equilibrium import LB, _check_collision
from .forcing import (ForceFieldModel, ForcePath, PathBlock, generate_path,
                      resolvent_apply)
from .rng import PARTICLES, PATH, as_generator, parallel_map, substream
from .torus import (BLOCK_VALUES, TorusField, TorusGrid, divergence, pairing,
                    sobolev_norm)

# Particles per block in `functional_samples`: a block holds as many whole
# realizations as fit, and at least one.  Measured (BENCH_block_stepping.json,
# lb, 1-D m=64): 250-particle realizations step at about the same cost per
# particle-step in blocks of 32 and of 64, and a 10^4-particle realization
# stepped alone was not slower than in a block of six.  So runs of a few
# hundred particles share blocks, runs of 10^4 or more stay alone, and the
# 64 x 250 particles of converge-1d-lb make two blocks for two workers.
BLOCK_PARTICLES = 1 << 13


@dataclass
class ParticleEnsemble:
    """Positions on the torus, velocities in R^N, one weight per particle."""

    positions: np.ndarray   # (n, N) in [0, 1)
    velocities: np.ndarray  # (n, N)
    weights: np.ndarray     # (n,), nonnegative, sum = total mass
    epsilon: float
    time: float = 0.0       # macroscopic clock

    def __post_init__(self):
        if not (0 < self.epsilon <= 1):
            raise ValueError("epsilon must lie in (0, 1]")
        if (self.weights < 0).any():
            raise ValueError("weights must be nonnegative")

    def advanced(self, positions: np.ndarray, velocities: np.ndarray,
                 dt_macro: float) -> "ParticleEnsemble":
        """The same particles at new positions and velocities, dt_macro
        later on the macroscopic clock; the weights and epsilon pass on
        unchanged, so they are not checked again."""
        new = object.__new__(ParticleEnsemble)
        new.__dict__.update(self.__dict__, positions=positions,
                            velocities=velocities,
                            time=self.time + dt_macro)
        return new

    @property
    def n_particles(self) -> int:
        return self.positions.shape[0]

    @property
    def mass(self) -> float:
        return float(self.weights.sum())

    @property
    def micro_time(self) -> float:
        return self.time / self.epsilon**2


@dataclass
class KineticRunConfig:
    collision: str
    epsilon: float
    horizon: float             # macroscopic T
    dt: float                  # micro time step
    n_particles: int
    grid: TorusGrid

    def __post_init__(self):
        _check_collision(self.collision)

    @property
    def micro_horizon(self) -> float:
        return self.horizon / self.epsilon**2

    @property
    def n_steps(self) -> int:
        """Micro steps over the horizon, each at most `dt` long."""
        return max(int(np.ceil(self.micro_horizon / self.dt - 1e-9)), 1)

    @property
    def step_dt(self) -> float:
        """The micro step taken: the horizon split into `n_steps`."""
        return self.micro_horizon / self.n_steps

    @property
    def path_horizon(self) -> float:
        """Length of a force path that covers the run, with rounding slack."""
        return self.micro_horizon * (1 + 1e-9) + 1e-9


@dataclass
class DensityEstimate:
    rho: TorusField              # scalar density
    current: TorusField          # vector first moment
    totals: np.ndarray           # total |v|^m moments, m = 0..3


# -- initial data ---------------------------------------------------------------


def sample_positions(rho: TorusField, n: int, seed) -> np.ndarray:
    """Sample n positions from a nonnegative density field (mass-normalised)."""
    rng = as_generator(seed)
    grid = rho.grid
    if grid.dim == 1:
        fine = 1 << 14
        xs = np.arange(fine) / fine
        vals = np.maximum(rho.eval_at(xs[:, None]), 0.0)
        cdf = np.concatenate([[0.0], np.cumsum(vals)])
        if not cdf[-1] > 0:
            raise ValueError("density has no positive mass")
        cdf /= cdf[-1]
        edges = np.concatenate([xs, [1.0]])
        u = rng.random(n)
        return np.interp(u, cdf, edges)[:, None]
    # rejection sampling against 1.05 times the grid maximum; a density
    # that exceeds it between nodes would be clipped, so it is refused
    bound = float(rho.physical().max()) * 1.05
    if not bound > 0:
        raise ValueError("density has no positive value on the grid")
    out = np.empty((n, grid.dim))
    filled = 0
    while filled < n:
        cand = rng.random((2 * (n - filled), grid.dim))
        level = rng.random(cand.shape[0]) * bound
        dens = np.maximum(rho.eval_at(cand), 0.0)
        if (dens > bound).any():
            raise ValueError(f"density {dens.max():.4g} between grid nodes "
                             f"exceeds the rejection envelope {bound:.4g}")
        take = cand[level <= dens][: n - filled]
        out[filled:filled + take.shape[0]] = take
        filled += take.shape[0]
    return out


def make_ensemble(rho_init: TorusField, n: int, epsilon: float,
                  seed, realizations: int = 1) -> ParticleEnsemble:
    """`realizations` runs of n equal-weight particles, each run carrying
    the mass of rho_init: positions from rho_init, Maxwellian velocities."""
    rng = as_generator(seed)
    mass = pairing(rho_init, TorusField.constant(rho_init.grid, 1.0))
    pos = sample_positions(rho_init, realizations * n, rng)
    vel = rng.standard_normal(pos.shape)
    w = np.full(realizations * n, mass / n)
    return ParticleEnsemble(pos, vel, w, epsilon)


# -- stepping ---------------------------------------------------------------------


def step_micro(ens: ParticleEnsemble, block: PathBlock, dt: float, seed,
               collision: str) -> ParticleEnsemble:
    """Advance every particle of a block by one micro time step.

    `block` holds the force paths of R realizations (a single run is
    `PathBlock([path])`); `ens` holds R runs of equally many particles, run
    r feeling path r.  The velocity update is exact in time for the
    step-start positions (see the module docstring).
    """
    _check_collision(collision)
    if dt <= 0:
        raise ValueError("dt must be positive")
    if ens.n_particles % block.size:
        raise ValueError(f"{ens.n_particles} particles do not split into "
                         f"{block.size} equal runs")
    s = ens.micro_time
    if not block.covers(s, s + dt):
        raise ValueError(f"force path does not cover [{s}, {s + dt}]")
    rng = as_generator(seed)
    n, dim = ens.positions.shape
    v = ens.velocities
    cuts, terms = block.pieces(s, dt)
    new_pos = np.multiply(v, ens.epsilon * dt)
    new_pos += ens.positions
    scratch = np.floor(new_pos)
    new_pos -= scratch
    if collision == LB:
        # the jump uniforms reuse the wrap's scratch array
        draws = rng.random(n, out=scratch.reshape(-1)[:n])
        jumpers = np.flatnonzero(draws < -np.expm1(-dt))
        # a jumper's last redraw lies -log1p(-u) before the step end
        ages = -np.log1p(-draws[jumpers])
        fresh = rng.standard_normal((jumpers.size, dim))
        new_vel = v
        weights = np.diff(cuts)
        # the part of each piece after the jumper's last redraw; cuts are
        # taken as ages before the step end, so a one-piece step gives
        # the age itself
        before_end = dt - cuts
        jump_weights = np.maximum(
            np.minimum(ages[:, None], before_end[:-1]) - before_end[1:], 0.0)
    else:
        new_vel = rng.standard_normal(out=scratch)
        new_vel *= np.sqrt(-np.expm1(-2.0 * dt))
        new_vel += np.exp(-dt) * v
        # int over the piece of exp(-(dt - u)) du, local to the step
        weights = np.exp(cuts[1:] - dt) * -np.expm1(cuts[:-1] - cuts[1:])
        jumpers = np.empty(0, dtype=np.intp)
    per_run = n // block.size
    jump_runs = jumpers // per_run
    jump_force = np.zeros((jumpers.size, dim))
    for field, runs, signs in terms:
        # each distinct field once on the particles of the runs that feel
        # it; the jumpers take their own weights of the same values
        if runs is None:
            # `out` goes by position: the span hook of `bench/spans.py` on
            # TorusField.eval_at takes no keyword arguments
            vals = field.eval_at(ens.positions, np.empty((n, dim)))
            mine, at, col = slice(None), jumpers, jump_runs
        else:
            rows = (runs[:, None] * per_run + np.arange(per_run)).ravel()
            vals = field.eval_at(ens.positions[rows])
            local = np.full(block.size, -1)
            local[runs] = np.arange(runs.size)
            mine = np.flatnonzero(local[jump_runs] >= 0)
            col = local[jump_runs[mine]]
            at = col * per_run + jumpers[mine] % per_run
        if jumpers.size:
            coef = np.einsum("jp,pj->j", jump_weights[mine], signs[:, col])
            jump_force[mine] += vals[at] * coef[:, None]
        by_run = vals.reshape(-1, per_run, dim)
        by_run *= (weights @ signs)[:, None, None]
        if runs is None:
            vals += new_vel
            new_vel = vals
        else:
            # `v` itself is never written
            if new_vel is v:
                new_vel = v.copy()
            new_vel[rows] += vals
    if jumpers.size:
        new_vel[jumpers] = fresh + jump_force
    return ens.advanced(new_pos, new_vel, dt * ens.epsilon**2)


# -- moment estimation ---------------------------------------------------------------


def _empirical_modes(grid: TorusGrid, positions: np.ndarray,
                     values, kmax: int) -> np.ndarray:
    """Exact sums S_c(k) = sum_i values_ic exp(-2 pi i k.x_i) of real values
    (n, C) for max_d |k_d| <= min(kmax, m/2 - 1), zero outside; returns
    (C,) + grid.shape in FFT order.

    `values` is the (n, C) array, or a function that returns the rows
    values[sl] of a slice sl of particles, so that callers need not form
    all n rows at once.  Particles go in blocks of max(1, BLOCK_VALUES // W),
    W = (2 kmax + 1)^(N-1) (kmax + 1) the modes with k_N >= 0.  A block
    forms its per-axis tables exp(-2 pi i k x_d), k = 0..kmax, as running
    products of exp(-2 pi i x_d), one complex exponential per particle and
    axis (at k <= 16 within 1.1e-14 of the exact phase, where exp of the
    rounded angle 2 pi k x_d is within 1.5e-14), then their outer product,
    its (b, W) mode table (the half table in 1-D), and reduces over its
    particles with `np.einsum` on the table's real view.  Without
    `optimize`, einsum runs numpy's own loops, never BLAS, so the sums do
    not depend on the BLAS thread count.  Block sums are added in block
    order, and S(-k) = conj S(k) gives the modes with k_N < 0.  Memory is
    O(C W + b W) whatever n.
    """
    n, m, dim = positions.shape[0], grid.m, grid.dim
    kmax = min(kmax, m // 2 - 1)
    ks = np.arange(-kmax, kmax + 1)
    rows = values if callable(values) else values.__getitem__
    width = ks.size ** (dim - 1) * (kmax + 1)
    size = max(1, BLOCK_VALUES // width)
    # one buffer for the blocks' mode tables: a fresh 256 kB array per
    # block would cost page faults
    table_buf = np.empty((min(size, n), width), dtype=complex)
    sums = 0.0
    for lo in range(0, n, size):
        # per-axis half tables (b, N, kmax + 1) of the powers of
        # exp(-2 pi i x_d); the mode table is the last one times the full
        # tables of the other axes, axis 0 outermost
        step = np.exp(-2j * np.pi * positions[lo:lo + size])
        b = len(step)
        half = np.ones((b, dim, kmax + 1), dtype=complex)
        np.cumprod(np.broadcast_to(step[:, :, None], (b, dim, kmax)), axis=2,
                   out=half[:, :, 1:])
        table = half[:, -1]
        for d in reversed(range(dim - 1)):
            full = np.concatenate([half[:, d, :0:-1].conj(), half[:, d]], 1)
            out = table_buf[:b].reshape(b, ks.size, -1) if d == 0 else None
            table = np.multiply(full[:, :, None], table[:, None, :],
                                out=out).reshape(b, -1)
        sums += np.einsum("ic,ik->ck", rows(slice(lo, lo + b)),
                          table.view(np.float64))
    s = sums.view(complex).reshape(-1, *[ks.size] * (dim - 1), kmax + 1)
    spec = np.zeros((len(s),) + grid.shape, dtype=complex)
    spec[np.ix_(range(len(s)), *[ks % m] * dim)] = np.concatenate(
        [np.flip(s, tuple(range(1, s.ndim)))[..., :-1].conj(), s], axis=-1)
    return spec


def moments(ens: ParticleEnsemble, grid: TorusGrid) -> DensityEstimate:
    """Density and current fields plus total velocity moments: the exact
    sums of the per-particle values w and w v on the modes
    max_d |k_d| <= m/4, in one call.  `_empirical_modes` asks for the
    value rows one particle block at a time; each block also adds its share
    of the totals sum_i w_i |v_i|^p, p = 0..3, in block order, so no array
    over all n particles is formed."""
    w, v = ens.weights, ens.velocities
    dim = v.shape[1]
    totals = np.zeros(4)

    def rows(sl):
        # the block's share of the totals, then its per-particle values of
        # the rank 0 and 1 moments, side by side
        wb, vb = w[sl, None], v[sl]
        speeds = np.sqrt(np.einsum("ij,ij->i", vb, vb))
        totals[:] += np.einsum("i,im->m", wb[:, 0],
                               speeds[:, None] ** np.arange(4))
        return np.concatenate([wb, wb * vb], axis=1)

    flat = _empirical_modes(grid, ens.positions, rows, grid.m // 4)
    rho, cur = [TorusField(
        grid, rank, flat[lo:lo + dim**rank].reshape((dim,) * rank + grid.shape),
        space="spectral").to_physical()
        for rank, lo in enumerate((0, 1))]
    return DensityEstimate(rho, cur, totals)


# -- corrector diagnostic ----------------------------------------------------------


def corrector_decomposition(dens: DensityEstimate, r0_now: TorusField,
                            epsilon: float):
    """Split rho = theta + zeta with theta = eps * div(J + rho R0(E)).

    `r0_now` is the resolvent R0 applied to the current force sample, for
    either law (`forcing.resolvent_apply`; for a renewal law it is the
    field itself).  theta captures the fast, O(eps) part of the density;
    its dual-norm decay in eps is one of the scaling diagnostics.
    """
    flux = dens.current + r0_now.scale_pointwise(dens.rho)
    theta = epsilon * divergence(flux)
    zeta = dens.rho - theta
    return theta, zeta


# -- full runs -------------------------------------------------------------------


@dataclass
class KineticRun:
    times: list
    estimates: list            # DensityEstimate per checkpoint
    ensemble: ParticleEnsemble
    corrector_norms: np.ndarray  # ||theta||_{H^-1} per checkpoint


def _evolve(cfg: KineticRunConfig, block: PathBlock, rho_init: TorusField,
            rng, checkpoint_steps, record) -> ParticleEnsemble:
    """Draw cfg.n_particles particles per path of `block` from `rng`, then
    take cfg.n_steps micro steps of the block on the same stream, calling
    `record(step, ens)` after each step in `checkpoint_steps` (0 is the
    initial ensemble).  The one stepping loop of the kinetic model."""
    if not block.covers(0.0, cfg.micro_horizon):
        raise ValueError("force path horizon too short for the rescaled run")
    dt = cfg.step_dt
    ens = make_ensemble(rho_init, cfg.n_particles, cfg.epsilon, rng,
                        realizations=block.size)
    if 0 in checkpoint_steps:
        record(0, ens)
    for step in range(1, cfg.n_steps + 1):
        ens = step_micro(ens, block, dt, rng, cfg.collision)
        if step in checkpoint_steps:
            record(step, ens)
    return ens


def run_rescaled(cfg: KineticRunConfig, path: ForcePath,
                 rho_init: TorusField, seed,
                 n_checkpoints: int = 10) -> KineticRun:
    """Evolve one conditioned realization over macro time [0, horizon].

    All particles share `path` (the conditioning environment); the collision
    and thermal noise is particle-independent.  Checkpoints are evenly spaced
    in macro time, including both endpoints; at each one the moments and
    the H^-1 norm of the corrector theta are recorded.
    """
    checkpoint_steps = set(np.round(
        np.linspace(0, cfg.n_steps, n_checkpoints + 1)).astype(int).tolist())
    times, estimates, norms = [], [], []

    def record(step, e):
        est = moments(e, cfg.grid)
        times.append(e.time)
        estimates.append(est)
        sample = path.value_at(min(e.micro_time, path.t_end))
        r0_now = resolvent_apply(path.model, (0.0,), sample)[0]
        theta, _ = corrector_decomposition(est, r0_now, cfg.epsilon)
        norms.append(sobolev_norm(theta, -1.0))

    ens = _evolve(cfg, PathBlock([path]), rho_init, as_generator(seed),
                  checkpoint_steps, record)
    return KineticRun(times, estimates, ens, np.asarray(norms))


def functional_samples(cfg: KineticRunConfig, model: ForceFieldModel,
                       rho_init: TorusField, xi_fields, n_realizations: int,
                       seed, n_workers: int = 1):
    """Samples of the position functionals <rho_T, xi> across realizations.

    `seed` is the caller's stream key (`kinlim.rng`).  Realizations are
    stepped in blocks of max(1, BLOCK_PARTICLES // cfg.n_particles)
    consecutive realizations (the last block may hold fewer), which are the
    unit handed to workers.  Realization r runs on its own force path, drawn
    from the key followed by (PATH, r); block b draws its particles and
    their noise from the key followed by (PARTICLES, b).
    Returns (samples, noise_floor), both (n_realizations, len(xi_fields)):
    `noise_floor` is the estimated conditional (particle-sampling) variance
    of each sample, mass^2 Var(xi(X)) / n.  By the law of total variance,
    subtracting its mean from the sample variance estimates the variance of
    the underlying law of <rho_T, xi> itself.
    """
    per_block = max(1, BLOCK_PARTICLES // cfg.n_particles)
    args = [(cfg, model, rho_init, xi_fields, seed, b,
             range(start, min(start + per_block, n_realizations)))
            for b, start in enumerate(range(0, n_realizations, per_block))]
    arr = np.concatenate(list(parallel_map(_block_functionals, args,
                                           n_workers)))
    n_xi = len(xi_fields)
    return arr[:, :n_xi], arr[:, n_xi:]


def _block_functionals(args):
    cfg, model, rho_init, xi_fields, seed, b, realizations = args
    paths = PathBlock([
        generate_path(model, cfg.path_horizon, seed=substream(seed, PATH, r))
        for r in realizations])
    ens = _evolve(cfg, paths, rho_init, substream(seed, PARTICLES, b),
                  checkpoint_steps=(), record=None)
    n = cfg.n_particles
    weights = ens.weights.reshape(paths.size, n)
    mass = weights.sum(axis=1)
    out = np.empty((paths.size, 2 * len(xi_fields)))
    for j, xi in enumerate(xi_fields):
        vals = xi.eval_at(ens.positions).reshape(paths.size, n)
        out[:, j] = np.sum(weights * vals, axis=1)
        out[:, len(xi_fields) + j] = mass**2 * vals.var(axis=1, ddof=1) / n
    return out
