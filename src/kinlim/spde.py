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

Realizations are advanced in batch; each realization's Gaussian increments
come from its own counter-based stream, so ensembles are reproducible for
any batch or worker layout.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import pairwise

import numpy as np

from .coefficients import CovOperator, HydroCoefficients
from .rng import substream
from .torus import TorusField, TorusGrid, divergence, gradient

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
    """Precomputed stepping data; operates on spectral coefficient arrays.

    Coefficient arrays have the grid axes last, so a batch of realizations is
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
        ks = grid.wavenumbers()
        self._ik = [2j * np.pi * k for k in ks]

        diff_vals = coeffs.diffusion.physical()
        phis = [] if cov is None else cov.noise_fields()
        self._phi = [p.physical() for p in phis]
        self.noise_rank = len(self._phi)
        if scheme == STRATONOVICH:
            # remove the Ito correction from dr drift: K - sum phi phi^T and
            # Theta - sum phi_k div phi_k
            noise_diag = cov.noise_diagonal().physical() if cov is not None \
                else 0.0
            diff_vals = diff_vals - noise_diag
            drift_vals = coeffs.drift.physical().copy()
            for p in phis:
                drift_vals -= p.physical() * divergence(p).physical()[None]
        else:
            drift_vals = coeffs.drift.physical()
        self._theta = drift_vals
        kbar = diff_vals.reshape(grid.dim, grid.dim, grid.size).mean(axis=-1)
        kbar = 0.5 * (kbar + kbar.T)
        self._kvar = diff_vals - kbar.reshape(grid.dim, grid.dim,
                                              *(1,) * grid.dim)
        mu = np.zeros(grid.shape)
        for i in range(grid.dim):
            for j in range(grid.dim):
                mu += 4 * np.pi**2 * kbar[i, j] * ks[i] * ks[j]
        self._cn_minus = 1.0 - 0.5 * dt * mu
        self._cn_plus_inv = 1.0 / (1.0 + 0.5 * dt * mu)

    # -- spectral helpers ---------------------------------------------------

    def _axes(self, arr):
        return tuple(range(arr.ndim - self.grid.dim, arr.ndim))

    def to_physical(self, coef):
        return np.fft.ifftn(coef, axes=self._axes(coef)).real * self.grid.size

    def to_spectral(self, phys):
        return np.fft.fftn(phys, axes=self._axes(phys)) / self.grid.size

    def _grad(self, coef):
        return [self.to_physical(ik * coef) for ik in self._ik]

    def _div_spectral(self, comps):
        out = 0.0
        for ik, comp in zip(self._ik, comps):
            out = out + ik * self.to_spectral(comp)
        return out

    def _explicit_drift_hat(self, coef, phys):
        grads = self._grad(coef)
        flux = []
        for i in range(self.grid.dim):
            acc = self._theta[i] * phys
            for j in range(self.grid.dim):
                acc = acc + self._kvar[i, j] * grads[j]
            flux.append(acc)
        return self._div_spectral(flux)

    def _noise_hat(self, phys, g):
        """sum_k g_k div(rho phi_k) in spectral space; g has shape (..., rank)."""
        out = 0.0
        for k in range(self.noise_rank):
            gk = g[..., k]
            gk = gk.reshape(gk.shape + (1,) * self.grid.dim)
            comps = [phys * self._phi[k][i] * gk
                     for i in range(self.grid.dim)]
            out = out + self._div_spectral(comps)
        return out

    # -- stepping ------------------------------------------------------------

    def step_hat(self, coef, g=None):
        """One step on spectral coefficients; g: standard normals (..., rank)."""
        phys = self.to_physical(coef)
        drift_hat = self._explicit_drift_hat(coef, phys)
        det = self._cn_minus * coef + self.dt * drift_hat
        if g is None or self.noise_rank == 0:
            return det * self._cn_plus_inv
        root = np.sqrt(2 * self.dt)
        noise0 = self._noise_hat(phys, g)
        if self.scheme == ITO:
            return (det + root * noise0) * self._cn_plus_inv
        # Stratonovich: Heun (midpoint) rule on the noise term
        pred = (det + root * noise0) * self._cn_plus_inv
        noise1 = self._noise_hat(self.to_physical(pred), g)
        return (det + root * 0.5 * (noise0 + noise1)) * self._cn_plus_inv


def mean_equation_solve(coeffs: HydroCoefficients, rho_in: TorusField,
                        horizon: float, dt: float, include_drift: bool = True
                        ) -> TorusField:
    """Deterministic solve of d_t r = div(K grad r + Theta r) (noise off).

    `include_drift=False` drops the Theta term, leaving the pure
    enhanced-diffusion equation for the ensemble average.
    """
    work = coeffs if include_drift else replace(
        coeffs, drift=TorusField.zeros(coeffs.diffusion.grid, 1))
    stepper = SpdeStepper(work, None, dt)
    n_steps = int(round(horizon / dt))
    coef = rho_in.spectrum().copy()
    for _ in range(n_steps):
        coef = stepper.step_hat(coef)
    return TorusField(rho_in.grid, 0, coef, space="spectral").to_physical()


@dataclass
class EnsembleResult:
    times: np.ndarray
    mean_hat: np.ndarray        # (n_checkpoints, grid shape), complex
    var_hat: np.ndarray         # per-mode variance of the coefficients
    samples: np.ndarray         # (n_checkpoints, n_realizations, n_xi)
    min_rho: float              # most negative physical value seen
    noise_rank: int

    def mean_field(self, grid: TorusGrid, idx: int = -1) -> TorusField:
        return TorusField(grid, 0, self.mean_hat[idx],
                          space="spectral").to_physical()


def _realizations(stepper: SpdeStepper, rho_in: TorusField, n_steps: int,
                  n_realizations: int, seed: int):
    """Spectra (n_realizations, grid shape) of independent realizations
    started at rho_in, after 0, 1, ..., n_steps steps.  Realization r draws
    its standard normals from stream (seed, 41, r)."""
    noise = np.empty((n_realizations, n_steps, stepper.noise_rank))
    for r in range(n_realizations):
        noise[r] = substream(seed, 41, r).standard_normal(noise.shape[1:])
    coef = np.broadcast_to(rho_in.spectrum(),
                           (n_realizations,) + rho_in.grid.shape).copy()
    yield coef
    for step in range(n_steps):
        coef = stepper.step_hat(coef, noise[:, step, :])
        yield coef


def run_ensemble(coeffs: HydroCoefficients, cov: CovOperator,
                 rho_in: TorusField, horizon: float, dt: float,
                 n_realizations: int, seed: int, xi_fields=(),
                 n_checkpoints: int = 5, scheme: str = ITO) -> EnsembleResult:
    """Batched ensemble of independent realizations with law statistics."""
    if n_realizations < 2:
        raise ValueError("need at least two realizations")
    stepper = SpdeStepper(coeffs, cov, dt, scheme)
    n_steps = int(round(horizon / dt))
    xi_phys = [xi.physical() for xi in xi_fields]
    checkpoint_steps = set(np.round(
        np.linspace(0, n_steps, n_checkpoints + 1)).astype(int).tolist())
    times, means, var_list, samp = [], [], [], []
    min_rho = np.inf
    gaxes = tuple(range(1, 1 + rho_in.grid.dim))

    def record(step, coef):
        times.append(step * dt)
        means.append(coef.mean(axis=0))
        var_list.append(np.var(coef.real, axis=0) + np.var(coef.imag, axis=0))
        phys = stepper.to_physical(coef)
        row = np.empty((n_realizations, len(xi_phys)))
        for j, xi in enumerate(xi_phys):
            row[:, j] = (phys * xi).mean(axis=gaxes)
        samp.append(row)
        return float(phys.min())

    for step, coef in enumerate(_realizations(stepper, rho_in, n_steps,
                                              n_realizations, seed)):
        if step in checkpoint_steps:
            if not np.all(np.isfinite(coef)):
                raise ValueError("ensemble spectrum lost finiteness")
            min_rho = min(min_rho, record(step, coef))
    return EnsembleResult(np.array(times), np.array(means),
                          np.array(var_list), np.array(samp), min_rho,
                          stepper.noise_rank)


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
                              seed: int) -> QvReport:
    """Accumulate M_t = <rho_t, xi> - <rho_0, xi> - int <drift, xi> along each
    path and compare sum (dM)^2 with the predicted rate 2 ||S^1/2(rho grad xi)||^2.

    The paths are those of `run_ensemble` with the same seed; each increment
    dM is <step - noiseless step, xi> from the step's left endpoint.
    """
    grid = rho_in.grid
    stepper = SpdeStepper(coeffs, cov, dt, ITO)
    n_steps = int(round(horizon / dt))
    if n_steps < 1:
        raise ValueError("horizon shorter than one step")
    gaxes = tuple(range(1, 1 + grid.dim))
    grad_xi = gradient(xi).physical()
    xi_phys = xi.physical()
    qv_emp = np.zeros(n_realizations)
    qv_pred = np.zeros(n_realizations)
    mart = np.zeros(n_realizations)
    paths = _realizations(stepper, rho_in, n_steps, n_realizations, seed)
    for before, after in pairwise(paths):
        phys = stepper.to_physical(before)
        # predicted rate: 2 sum_k <phi_k, rho grad xi>^2 (left endpoint)
        for phi in stepper._phi:
            proj = np.zeros(n_realizations)
            for i in range(grid.dim):
                proj += (phys * phi[i] * grad_xi[i]).mean(axis=gaxes)
            qv_pred += 2.0 * dt * proj**2
        noise = stepper.to_physical(after - stepper.step_hat(before))
        dm = (noise * xi_phys).mean(axis=gaxes)
        qv_emp += dm**2
        mart += dm
    final = (stepper.to_physical(after) * xi_phys).mean(axis=gaxes)
    gaps = np.abs(qv_emp - qv_pred) / np.maximum(qv_pred, 1e-300)
    return QvReport(qv_emp, qv_pred, float(gaps.mean()), float(mart.mean()),
                    float(mart.std(ddof=1) / np.sqrt(n_realizations)), final)
