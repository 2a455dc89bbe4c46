"""Spectral Galerkin solver for the limit stochastic drift-diffusion equation.

The density rho(t, x) on the torus satisfies, in Ito form,

    d rho = div( K(x) grad rho + Theta(x) rho ) dt
            + sqrt(2) sum_k div( rho phi_k ) dbeta_k,

where phi_k = sqrt(lambda_k) zeta_k are the noise-covariance eigenfields.
Both drift and noise are total divergences, so every Fourier-space step
conserves the k = 0 coefficient (the mass) exactly.

Scheme: spectral collocation in x with a semi-implicit Euler-Maruyama step.
The constant-coefficient part of the diffusion (the spatial mean of K) is
treated with a trapezoidal (Crank-Nicolson) weight in Fourier space; the
variable remainder, the drift and the Ito noise are explicit.  The
Stratonovich form of the same equation (diffusion K - sum phi phi^T, drift
Theta - sum phi_k div phi_k, Heun midpoint noise) is available for
cross-checking the two calculi against each other.

The state is the half spectrum of `numpy.fft.rfftn` with `norm="forward"`
(last grid axis cut to modes 0 .. m/2).  Drift and noise are summed into
one flux per axis in physical space,

    F_i = dt (Theta_i rho + sum_j Kvar_ij d_j rho)
          + sqrt(2 dt) rho sum_k g_k phi_k,i,

and one step is coef' = (cn_minus coef + sum_i ik_i rfftn(F_i)) cn_plus_inv.
Coefficient fields that are identically zero are dropped when the stepper
is built, so a flux or gradient component that no term needs is never
transformed.  An Ito step costs one inverse transform for rho, one per
gradient component in use and one forward transform per flux: at most 3 in
1-D, 3 for the two-point law +/- a cos(2 pi x_0) e_0 in 2-D and at most 5
in 2-D.  The Heun step adds one inverse transform and the fluxes once
more; since the noise is linear in rho, its mean noise is the noise of
(rho + rho_pred) / 2.

A real field's spectrum pairs c(-k) = conj c(k).  The Nyquist wavenumber
m/2 is its own negative on the grid, so an odd derivative there would feed
an imaginary part that no real field has; as usual for real fields, the
derivative symbol 2 pi i k_i is set to zero on every mode with
|k_i| = m/2 (the second-order Crank-Nicolson symbol keeps k_i^2).

Realizations are advanced in blocks of `torus.BLOCK_VALUES` grid values
(max(1, BLOCK_VALUES // M^N) realizations, the last block may hold fewer),
one `step_hat` call per block, so the step's temporaries stay cache-sized
whatever the ensemble size; each step writes every block into one fresh
state array.  The checkpoint samples and the quadratic-variation check go
through physical space block by block too; only a checkpoint's ensemble
mean and variance reduce the whole half-spectrum state at once, which keeps
their summation order independent of the blocks.  Every transform acts on
each realization alone, so blocked and one-block stepping are
bit-identical.  Each realization's Gaussian increments come from its own
counter-based stream, so ensembles are reproducible for any block or
worker layout.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .coefficients import CovOperator, HydroCoefficients
from .rng import SPDE_NOISE, substream
from .torus import (BLOCK_VALUES, TorusField, TorusGrid, divergence,
                    gradient)

ITO = "ito"
STRATONOVICH = "stratonovich"


def stability_limit(coeffs: HydroCoefficients) -> float:
    """dt bound 1 / (4 pi^2 kmax^2 max_x eig(K(x))) for the explicit parts."""
    grid = coeffs.diffusion.grid
    vals = coeffs.diffusion.physical().reshape(grid.dim, grid.dim, grid.size)
    lam_max = float(np.max(np.linalg.eigvalsh(np.moveaxis(vals, -1, 0))))
    kmax = grid.m // 2
    return 1.0 / (4 * np.pi**2 * kmax**2 * lam_max)


class SpdeStepper:
    """Precomputed stepping data; operates on half-spectrum coefficient arrays.

    Coefficient arrays hold the `rfftn` half spectrum (last grid axis cut to
    m // 2 + 1 modes) with the grid axes last, so a batch of realizations is
    just a leading axis.
    """

    def __init__(self, coeffs: HydroCoefficients, cov: CovOperator, dt: float,
                 scheme: str = ITO):
        if scheme not in (ITO, STRATONOVICH):
            raise ValueError(f"unknown scheme {scheme!r}")
        grid = coeffs.diffusion.grid
        if cov is not None and cov.grid != grid:
            raise ValueError("coefficients and covariance on different grids")
        limit = stability_limit(coeffs)
        if dt > limit * (1 + 1e-12):
            raise ValueError(f"dt={dt} above the stability bound {limit:.3e}")
        self.grid = grid
        self.dt = float(dt)
        self.scheme = scheme
        ks = [_half_spectrum(k) for k in grid.wavenumbers()]
        # odd derivatives vanish on the Nyquist modes (module docstring)
        self._ik = [2j * np.pi * np.where(np.abs(k) == grid.m // 2, 0, k)
                    for k in ks]

        diff_vals = coeffs.diffusion.physical()
        phis = [] if cov is None else cov.noise_fields()
        phi_vals = [p.physical() for p in phis]
        self.noise_rank = len(phis)
        if scheme == STRATONOVICH:
            # remove the Ito correction from the drift: K - sum phi phi^T and
            # Theta - sum phi_k div phi_k
            noise_diag = cov.noise_diagonal().physical() if cov is not None \
                else 0.0
            diff_vals = diff_vals - noise_diag
            drift_vals = coeffs.drift.physical().copy()
            for p in phis:
                drift_vals -= p.physical() * divergence(p).physical()[None]
        else:
            drift_vals = coeffs.drift.physical()
        kbar = diff_vals.reshape(grid.dim, grid.dim, grid.size).mean(axis=-1)
        kbar = 0.5 * (kbar + kbar.T)
        kvar = diff_vals - kbar.reshape(grid.dim, grid.dim,
                                        *(1,) * grid.dim)
        # Flux terms per axis i, pre-scaled: dt Theta_i, dt Kvar_ij and
        # sqrt(2 dt) phi_k,i.  An identically zero field contributes exact
        # zeros, so it is dropped here and no transform serves it.
        root = np.sqrt(2 * self.dt)
        self._theta = [self.dt * th if th.any() else None
                       for th in drift_vals]
        self._kvar = [[(j, self.dt * kv) for j, kv in enumerate(row)
                       if kv.any()] for row in kvar]
        self._phi = [[(k, root * p[i]) for k, p in enumerate(phi_vals)
                      if p[i].any()] for i in range(grid.dim)]
        self._grad_axes = sorted({j for row in self._kvar for j, _ in row})
        n_flux = sum(1 for i in range(grid.dim) if self._theta[i] is not None
                     or self._kvar[i] or self._phi[i])
        # transforms of one noisy step: rho, the gradient components the
        # fluxes need and one forward transform per flux (Heun: again the
        # predicted rho and the fluxes)
        self.transforms_per_step = 1 + len(self._grad_axes) + n_flux
        if scheme == STRATONOVICH and self.noise_rank:
            self.transforms_per_step += 1 + n_flux
        mu = np.zeros(ks[0].shape)
        for i in range(grid.dim):
            for j in range(grid.dim):
                mu += 4 * np.pi**2 * kbar[i, j] * ks[i] * ks[j]
        self._cn_minus = 1.0 - 0.5 * dt * mu
        self._cn_plus_inv = 1.0 / (1.0 + 0.5 * dt * mu)

    # -- spectral helpers ---------------------------------------------------

    def _axes(self, arr):
        return tuple(range(arr.ndim - self.grid.dim, arr.ndim))

    def to_physical(self, coef):
        return np.fft.irfftn(coef, s=self.grid.shape, axes=self._axes(coef),
                             norm="forward")

    def to_spectral(self, phys):
        return np.fft.rfftn(phys, axes=self._axes(phys), norm="forward")

    def _flux(self, i, rho, grads, rho_noise, g):
        """F_i = dt (Theta_i rho + sum_j Kvar_ij d_j rho)
        + sqrt(2 dt) rho_noise sum_k g_k phi_k,i, or None if every term is
        an exact zero."""
        terms = [] if self._theta[i] is None else [self._theta[i] * rho]
        terms += [kv * grads[j] for j, kv in self._kvar[i]]
        if g is not None and self._phi[i]:
            shape = g.shape[:-1] + (1,) * self.grid.dim
            u = [g[..., k].reshape(shape) * phi for k, phi in self._phi[i]]
            terms.append(rho_noise * _summed(u))
        return _summed(terms) if terms else None

    def _update(self, coef, rho, grads, rho_noise, g):
        """(cn_minus coef + sum_i ik_i rfftn(F_i)) cn_plus_inv."""
        out = self._cn_minus * coef
        for i, ik in enumerate(self._ik):
            flux = self._flux(i, rho, grads, rho_noise, g)
            if flux is not None:
                out += ik * self.to_spectral(flux)
        out *= self._cn_plus_inv
        return out

    # -- stepping ------------------------------------------------------------

    def step_hat(self, coef, g=None):
        """One step on half-spectrum coefficients; g: standard normals
        (..., rank)."""
        if self.noise_rank == 0:
            g = None
        rho = self.to_physical(coef)
        grads = {j: self.to_physical(self._ik[j] * coef)
                 for j in self._grad_axes}
        new = self._update(coef, rho, grads, rho, g)
        if g is None or self.scheme == ITO:
            return new
        # Stratonovich: Heun rule; the noise is linear in rho, so the mean of
        # the two endpoint noises is the noise of the mean density
        rho_mid = 0.5 * (rho + self.to_physical(new))
        return self._update(coef, rho, grads, rho_mid, g)


def _summed(arrays):
    """Sum of freshly made arrays, accumulated in place into the first."""
    out = arrays[0]
    for arr in arrays[1:]:
        out += arr
    return out


def _half_spectrum(full):
    """The modes 0 .. m/2 of the last axis: the `rfftn` half of a spectrum."""
    return full[..., :full.shape[-1] // 2 + 1]


def _full_spectrum(half, grid: TorusGrid):
    """Full spectrum from the half spectrum of a real field, c(-k) =
    conj c(k): exact, no transform."""
    mirror = np.conj(half[..., grid.m // 2 - 1:0:-1])
    for ax in range(half.ndim - grid.dim, half.ndim - 1):
        mirror = np.roll(np.flip(mirror, ax), 1, ax)
    return np.concatenate([half, mirror], axis=-1)


def step_count(horizon: float, dt: float) -> int:
    """Number of steps of size dt that end at `horizon`; refused unless it
    is a whole number (to relative 1e-9) and at least one."""
    n_steps = round(horizon / dt)
    if n_steps < 1 or abs(n_steps * dt - horizon) > 1e-9 * horizon:
        raise ValueError(f"horizon {horizon} is not a whole number of steps "
                         f"dt = {dt} (at least one)")
    return n_steps


def mean_equation_solve(coeffs: HydroCoefficients, rho_in: TorusField,
                        horizon: float, dt: float) -> TorusField:
    """Deterministic solve of d_t r = div(K grad r + Theta r) (noise off)."""
    n_steps = step_count(horizon, dt)
    stepper = SpdeStepper(coeffs, None, dt)
    coef = _half_spectrum(rho_in.spectrum())
    for _ in range(n_steps):
        coef = stepper.step_hat(coef)
    return TorusField(rho_in.grid, 0, stepper.to_physical(coef))


@dataclass
class EnsembleResult:
    times: np.ndarray
    mean_hat: np.ndarray        # (n_checkpoints, grid shape), complex
    var_hat: np.ndarray         # per-mode variance of the coefficients
    samples: np.ndarray         # (n_checkpoints, n_realizations, n_xi)
    min_rho: float              # most negative physical value seen
    noise_rank: int
    n_steps: int
    transforms_per_step: int
    blocks_per_step: int        # step_hat calls per step
    block_realizations: int     # realizations per block (last may hold fewer)

    def mean_field(self, grid: TorusGrid, idx: int = -1) -> TorusField:
        return TorusField(grid, 0, self.mean_hat[idx],
                          space="spectral").to_physical()


def _blocks(n_realizations: int, grid: TorusGrid) -> list:
    """Slices of consecutive realizations of BLOCK_VALUES grid values each
    (at least one realization); the last block may hold fewer."""
    size = max(1, BLOCK_VALUES // grid.size)
    return [slice(lo, min(lo + size, n_realizations))
            for lo in range(0, n_realizations, size)]


def _realizations(stepper: SpdeStepper, rho_in: TorusField, n_steps: int,
                  n_realizations: int, seed):
    """Half spectra (n_realizations, half grid shape) of independent
    realizations started at rho_in, after 0, 1, ..., n_steps steps.
    Realization r draws its standard normals from the stream key `seed`
    followed by (SPDE_NOISE, r)."""
    noise = np.empty((n_realizations, n_steps, stepper.noise_rank))
    for r in range(n_realizations):
        noise[r] = substream(seed, SPDE_NOISE, r).standard_normal(
            noise.shape[1:])
    start = _half_spectrum(rho_in.spectrum())
    coef = np.broadcast_to(start, (n_realizations,) + start.shape).copy()
    yield coef
    blocks = _blocks(n_realizations, stepper.grid)
    for step in range(n_steps):
        new = np.empty_like(coef)
        for b in blocks:
            new[b] = stepper.step_hat(coef[b], noise[b, step, :])
        coef = new
        yield coef


def run_ensemble(coeffs: HydroCoefficients, cov: CovOperator,
                 rho_in: TorusField, horizon: float, dt: float,
                 n_realizations: int, seed, xi_fields=(),
                 n_checkpoints: int = 5, scheme: str = ITO) -> EnsembleResult:
    """Batched ensemble of independent realizations with law statistics."""
    if n_realizations < 2:
        raise ValueError("need at least two realizations")
    n_steps = step_count(horizon, dt)
    stepper = SpdeStepper(coeffs, cov, dt, scheme)
    xi_phys = [xi.physical() for xi in xi_fields]
    checkpoint_steps = set(np.round(
        np.linspace(0, n_steps, n_checkpoints + 1)).astype(int).tolist())
    times, means, var_list, samp = [], [], [], []
    min_rho = np.inf
    grid = rho_in.grid
    gaxes = tuple(range(1, 1 + grid.dim))
    blocks = _blocks(n_realizations, grid)

    def record(step, coef):
        times.append(step * dt)
        means.append(_full_spectrum(coef.mean(axis=0), grid))
        var_list.append(_full_spectrum(
            np.var(coef.real, axis=0) + np.var(coef.imag, axis=0), grid))
        row = np.empty((n_realizations, len(xi_phys)))
        low = np.inf
        for b in blocks:
            phys = stepper.to_physical(coef[b])
            for j, xi in enumerate(xi_phys):
                row[b, j] = (phys * xi).mean(axis=gaxes)
            low = min(low, float(phys.min()))
        samp.append(row)
        return low

    for step, coef in enumerate(_realizations(stepper, rho_in, n_steps,
                                              n_realizations, seed)):
        if step in checkpoint_steps:
            if not np.all(np.isfinite(coef)):
                raise ValueError("ensemble spectrum lost finiteness")
            min_rho = min(min_rho, record(step, coef))
    return EnsembleResult(np.array(times), np.array(means),
                          np.array(var_list), np.array(samp), min_rho,
                          stepper.noise_rank, n_steps,
                          stepper.transforms_per_step, len(blocks),
                          blocks[0].stop - blocks[0].start)


@dataclass
class QvReport:
    """Pathwise comparison of the realized and predicted quadratic variation."""

    empirical: np.ndarray       # per-realization sum of squared increments
    predicted: np.ndarray       # per-realization 2 int ||S^1/2(rho grad xi)||^2
    mean_relative_gap: float
    martingale_mean: float      # ensemble mean of M_T (should be ~ 0)
    martingale_se: float
    final: np.ndarray           # per-realization <rho_T, xi>


def quadratic_variation_check(coeffs: HydroCoefficients, cov: CovOperator,
                              rho_in: TorusField, xi: TorusField,
                              horizon: float, dt: float, n_realizations: int,
                              seed) -> QvReport:
    """Accumulate M_t = <rho_t, xi> - <rho_0, xi> - int <drift, xi> along each
    path and compare sum (dM)^2 with the predicted rate 2 ||S^1/2(rho grad xi)||^2.

    The paths are those of `run_ensemble` with the same seed; each increment
    dM is <step - noiseless step, xi> from the step's left endpoint.
    """
    grid = rho_in.grid
    n_steps = step_count(horizon, dt)
    stepper = SpdeStepper(coeffs, cov, dt, ITO)
    gaxes = tuple(range(1, 1 + grid.dim))
    grad_xi = gradient(xi).physical()
    xi_phys = xi.physical()
    phis = [p.physical() for p in cov.noise_fields()]
    qv_emp = np.zeros(n_realizations)
    qv_pred = np.zeros(n_realizations)
    mart = np.zeros(n_realizations)
    blocks = _blocks(n_realizations, grid)
    paths = _realizations(stepper, rho_in, n_steps, n_realizations, seed)
    for before, after in pairwise(paths):
        for b in blocks:
            phys = stepper.to_physical(before[b])
            # predicted rate: 2 sum_k <phi_k, rho grad xi>^2 (left endpoint)
            for phi in phis:
                proj = np.zeros(len(phys))
                for i in range(grid.dim):
                    proj += (phys * phi[i] * grad_xi[i]).mean(axis=gaxes)
                qv_pred[b] += 2.0 * dt * proj**2
            noise = stepper.to_physical(after[b]
                                        - stepper.step_hat(before[b]))
            dm = (noise * xi_phys).mean(axis=gaxes)
            qv_emp[b] += dm**2
            mart[b] += dm
    final = np.concatenate([(stepper.to_physical(after[b]) * xi_phys)
                            .mean(axis=gaxes) for b in blocks])
    gaps = np.abs(qv_emp - qv_pred) / np.maximum(qv_pred, 1e-300)
    return QvReport(qv_emp, qv_pred, float(gaps.mean()), float(mart.mean()),
                    float(mart.std(ddof=1) / np.sqrt(n_realizations)), final)
