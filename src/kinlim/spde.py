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

from dataclasses import dataclass

import numpy as np

from .coefficients import CovOperator, HydroCoefficients
from .rng import substream
from .torus import TorusField, TorusGrid, divergence

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
                 mode_cutoff: int = None, scheme: str = ITO):
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
        self.mode_cutoff = grid.m // 2 if mode_cutoff is None else mode_cutoff
        ks = grid.wavenumbers()
        self._ik = [2j * np.pi * k for k in ks]
        # Galerkin projection mask
        mask = np.ones(grid.shape, dtype=bool)
        for k in ks:
            mask &= np.abs(k) <= self.mode_cutoff
        self._mask = mask

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
        self._cn_minus = (1.0 - 0.5 * dt * mu) * mask
        self._cn_plus_inv = mask / (1.0 + 0.5 * dt * mu)

    # -- spectral helpers ---------------------------------------------------

    def _axes(self, arr):
        return tuple(range(arr.ndim - self.grid.dim, arr.ndim))

    def to_physical(self, coef):
        return np.fft.ifftn(coef * self._mask, axes=self._axes(coef)).real \
            * self.grid.size

    def to_spectral(self, phys):
        return np.fft.fftn(phys, axes=self._axes(phys)) / self.grid.size \
            * self._mask

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
        if self.scheme == ITO or self.noise_rank == 0 or g is None:
            noise_hat = 0.0
            if g is not None and self.noise_rank:
                noise_hat = np.sqrt(2 * self.dt) * self._noise_hat(phys, g)
            return (self._cn_minus * coef + self.dt * drift_hat + noise_hat) \
                * self._cn_plus_inv
        # Stratonovich: Heun (midpoint) rule on the noise term
        root = np.sqrt(2 * self.dt)
        noise0 = self._noise_hat(phys, g)
        pred = (self._cn_minus * coef + self.dt * drift_hat
                + root * noise0) * self._cn_plus_inv
        noise1 = self._noise_hat(self.to_physical(pred), g)
        return (self._cn_minus * coef + self.dt * drift_hat
                + root * 0.5 * (noise0 + noise1)) * self._cn_plus_inv

    def martingale_parts_hat(self, coef, g):
        """(deterministic update, noise increment) of one Ito step."""
        phys = self.to_physical(coef)
        drift_hat = self._explicit_drift_hat(coef, phys)
        det = (self._cn_minus * coef + self.dt * drift_hat) * self._cn_plus_inv
        if self.noise_rank:
            noise = np.sqrt(2 * self.dt) * self._noise_hat(phys, g) \
                * self._cn_plus_inv
        else:
            noise = np.zeros_like(det)
        return det, noise


def mean_equation_solve(coeffs: HydroCoefficients, rho_in: TorusField,
                        horizon: float, dt: float, include_drift: bool = True,
                        mode_cutoff: int = None) -> TorusField:
    """Deterministic solve of d_t r = div(K grad r + Theta r) (noise off).

    `include_drift=False` drops the Theta term, leaving the pure
    enhanced-diffusion equation for the ensemble average.
    """
    work = coeffs if include_drift else HydroCoefficients(
        coeffs.diffusion, TorusField.zeros(coeffs.diffusion.grid, 1),
        coeffs.collision, coeffs.collision_factor, coeffs.r1_sym,
        coeffs.diffusion_stderr, coeffs.drift_stderr, coeffs.n_mc)
    stepper = SpdeStepper(work, None, dt, mode_cutoff)
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
    dt: float

    def mean_field(self, grid: TorusGrid, idx: int = -1) -> TorusField:
        return TorusField(grid, 0, self.mean_hat[idx],
                          space="spectral").to_physical()


def run_ensemble(coeffs: HydroCoefficients, cov: CovOperator,
                 rho_in: TorusField, horizon: float, dt: float,
                 n_realizations: int, seed: int, xi_fields=(),
                 n_checkpoints: int = 5, scheme: str = ITO,
                 mode_cutoff: int = None) -> EnsembleResult:
    """Batched ensemble of independent realizations with law statistics."""
    if n_realizations < 2:
        raise ValueError("need at least two realizations")
    grid = rho_in.grid
    stepper = SpdeStepper(coeffs, cov, dt, mode_cutoff, scheme)
    n_steps = int(round(horizon / dt))
    rank = stepper.noise_rank
    # per-realization noise blocks, pure functions of (seed, realization)
    noise = np.empty((n_realizations, n_steps, rank))
    for r in range(n_realizations):
        noise[r] = substream(seed, 41, r).standard_normal((n_steps, rank))
    coef = np.broadcast_to(rho_in.spectrum(),
                           (n_realizations,) + grid.shape).copy()
    xi_phys = [xi.physical() for xi in xi_fields]
    checkpoint_steps = np.unique(np.round(
        np.linspace(0, n_steps, n_checkpoints + 1)).astype(int))
    times, means, var_list, samp = [], [], [], []
    min_rho = np.inf
    gaxes = tuple(range(1, 1 + grid.dim))

    def record(step):
        times.append(step * dt)
        means.append(coef.mean(axis=0))
        var_list.append(np.var(coef.real, axis=0) + np.var(coef.imag, axis=0))
        phys = stepper.to_physical(coef)
        row = np.empty((n_realizations, len(xi_phys)))
        for j, xi in enumerate(xi_phys):
            row[:, j] = (phys * xi).mean(axis=gaxes)
        samp.append(row)
        return float(phys.min())

    min_rho = min(min_rho, record(0))
    for step in range(1, n_steps + 1):
        coef = stepper.step_hat(coef, noise[:, step - 1, :])
        if step in checkpoint_steps:
            if not np.all(np.isfinite(coef)):
                raise ValueError("ensemble spectrum lost finiteness")
            min_rho = min(min_rho, record(step))
    return EnsembleResult(np.array(times), np.array(means),
                          np.array(var_list), np.array(samp), min_rho,
                          rank, dt)


@dataclass
class QvReport:
    """Pathwise comparison of the realized and predicted quadratic variation."""

    empirical: np.ndarray       # per-realization sum of squared increments
    predicted: np.ndarray       # per-realization 2 int ||S^1/2(rho grad xi)||^2
    mean_relative_gap: float
    martingale_mean: float      # ensemble mean of M_T (should be ~ 0)
    martingale_se: float


def quadratic_variation_check(coeffs: HydroCoefficients, cov: CovOperator,
                              rho_in: TorusField, xi: TorusField,
                              horizon: float, dt: float, n_realizations: int,
                              seed: int) -> QvReport:
    """Accumulate M_t = <rho_t, xi> - <rho_0, xi> - int <drift, xi> along each
    path and compare sum (dM)^2 with the predicted rate 2 ||S^1/2(rho grad xi)||^2.
    """
    grid = rho_in.grid
    stepper = SpdeStepper(coeffs, cov, dt, None, ITO)
    n_steps = int(round(horizon / dt))
    rank = stepper.noise_rank
    noise = np.empty((n_realizations, n_steps, rank))
    for r in range(n_realizations):
        noise[r] = substream(seed, 41, r).standard_normal((n_steps, rank))
    coef = np.broadcast_to(rho_in.spectrum(),
                           (n_realizations,) + grid.shape).copy()
    gaxes = tuple(range(1, 1 + grid.dim))
    grad_xi = [g.physical() for g in _gradient_fields(xi)]
    phi = [p.physical() for p in cov.noise_fields()]
    qv_emp = np.zeros(n_realizations)
    qv_pred = np.zeros(n_realizations)
    mart = np.zeros(n_realizations)
    for step in range(n_steps):
        phys = stepper.to_physical(coef)
        # predicted rate: 2 sum_k <phi_k, rho grad xi>^2 (left endpoint)
        for k in range(rank):
            proj = np.zeros(n_realizations)
            for i in range(grid.dim):
                proj += (phys * phi[k][i] * grad_xi[i]).mean(axis=gaxes)
            qv_pred += 2.0 * dt * proj**2
        det, noi = stepper.martingale_parts_hat(coef, noise[:, step, :])
        dm = _xi_functional(stepper, noi, xi, gaxes)
        qv_emp += dm**2
        mart += dm
        coef = det + noi
    gaps = np.abs(qv_emp - qv_pred) / np.maximum(qv_pred, 1e-300)
    return QvReport(qv_emp, qv_pred, float(gaps.mean()), float(mart.mean()),
                    float(mart.std(ddof=1) / np.sqrt(n_realizations)))


def _gradient_fields(xi: TorusField):
    from .torus import gradient
    g = gradient(xi)
    return [g.component(i) for i in range(xi.grid.dim)]


def _xi_functional(stepper: SpdeStepper, coef, xi: TorusField, gaxes):
    phys = stepper.to_physical(coef)
    return (phys * xi.physical()).mean(axis=gaxes)
