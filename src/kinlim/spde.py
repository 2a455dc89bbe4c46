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
(last grid axis cut to modes 0 .. m/2).  The flux per axis,

    F_i = dt (Theta_i rho + sum_j Kvar_ij d_j rho)
          + sqrt(2 dt) rho sum_k g_k phi_k,i,

is a grid (collocation) product, so its spectrum is exactly the circular
convolution of the factors' spectra.  When the stepper is built, each
pre-scaled coefficient field (dt Theta_i, dt Kvar_ij, sqrt(2 dt) phi_k,i)
is cut to its modes above rounding (`torus.significant_modes`), and

    F_i^(k) = sum_q c_q src(k - q)

with src = rho^, ik_j rho^ or the noise density: one shifted product per
kept mode q (the noise fields share one product per (i, q), its factor
sum_k g_k c_k,q per realization).  A step is then
coef' = (cn_minus coef + sum_i ik_i F_i^) cn_plus_inv and runs no
transform.  Shifted reads are slices of a periodic extension of the
source: the spectrum, completed by c(-k) = conj c(k) along the last axis
when some mode shifts it, laid out twice along each shifted axis.  The
step's cost is proportional to the number of coefficient modes (6 for the
two-point law +/- a cos(2 pi x_0) e_0 in 1-D and 2-D), not to log(grid):
every law the configs reach has a handful of modes, so there is no
transform fallback for dense coefficients.  The Heun step adds the noise
products once more on its midpoint (coef + coef_pred) / 2: the noise is
linear in rho, so the mean of the two endpoint noises is the noise of the
mean density.

A real field's spectrum pairs c(-k) = conj c(k).  The Nyquist wavenumber
m/2 is its own negative on the grid, so an odd derivative there would feed
an imaginary part that no real field has; as usual for real fields, the
derivative symbol 2 pi i k_i is set to zero on every mode with
|k_i| = m/2.  The Crank-Nicolson symbol keeps k_i^2 there but, for the
same reason, not a cross term k_i k_j (i != j): with it, a mean K_ij off
the diagonal would weigh the modes (m/2, k_j) and (m/2, -k_j) unequally,
and the step would leave the real fields.  The k = 0 symbol is zero too,
so the mass coefficient is never changed.

Realizations are advanced in blocks of `torus.BLOCK_VALUES` grid values
(max(1, BLOCK_VALUES // M^N) realizations, the last block may hold fewer),
one `step_hat` call per block, so the step's temporaries stay cache-sized
whatever the ensemble size; each step writes every block into one fresh
state array.  The checkpoint samples and the quadratic-variation check go
through physical space block by block too; only a checkpoint's ensemble
mean and variance reduce the whole half-spectrum state at once, which keeps
their summation order independent of the blocks.  Every product and
transform acts on each realization alone, so blocked and one-block
stepping are bit-identical.  Each realization's Gaussian increments come
from its own counter-based stream, so ensembles are reproducible for any
block or worker layout.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from itertools import pairwise

import numpy as np

from .coefficients import CovOperator, HydroCoefficients
from .rng import SPDE_NOISE, substream
from .torus import (BLOCK_VALUES, TorusField, TorusGrid, divergence,
                    gradient, significant_modes)

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
        self._ik = [_ik_symbol(k, grid.m) for k in ks]

        diff_vals = coeffs.diffusion.physical()
        phis = [] if cov is None else cov.noise_fields()
        phi_vals = [p.physical() for p in phis]
        self.noise_rank = len(phis)
        # the kept modes of the pre-scaled flux fields dt Theta_i, dt Kvar_ij
        # and sqrt(2 dt) phi_k,i; Kvar = K - kbar keeps the modes of K but
        # its mean, which the Crank-Nicolson weight takes (symmetric K)
        theta = _kept_spectrum(self.dt * coeffs.drift.physical(), grid)
        if scheme == STRATONOVICH:
            # remove the Ito correction from the drift: K - sum phi phi^T and
            # Theta - sum phi_k div phi_k; each phi_k div phi_k is cut before
            # it is subtracted, since the difference can nearly cancel
            noise_diag = cov.noise_diagonal().physical() if cov is not None \
                else 0.0
            diff_vals = diff_vals - noise_diag
            for p in phis:
                hat, tail = _kept_spectrum(self.dt * p.physical()
                                           * divergence(p).physical()[None],
                                           grid)
                theta = (theta[0] - hat, max(theta[1], tail))
        kbar = diff_vals.reshape(grid.dim, grid.dim, grid.size).mean(axis=-1)
        kbar = 0.5 * (kbar + kbar.T)
        root = np.sqrt(2 * self.dt)
        spectra = [theta, _kept_spectrum(self.dt * diff_vals, grid)]
        spectra += [_kept_spectrum(root * p, grid) for p in phi_vals]
        (theta_hat, _), (kvar_hat, _), *phi_hat = spectra
        kvar_hat[(Ellipsis,) + (0,) * grid.dim] = 0.0
        self.dropped_tail = max(tail for _, tail in spectra)
        self.coefficient_modes = sum(int(np.count_nonzero(hat))
                                     for hat, _ in spectra)

        # drift terms by shift q: (i, factor of rho^(k - q)); a Kvar_ij mode
        # also carries its source's derivative symbol ik_j(k - q)
        drift, noise = defaultdict(list), defaultdict(list)
        for (i, *q), c in _modes(theta_hat, grid):
            drift[tuple(q)].append((i, c))
        for (i, j, *q), c in _modes(kvar_hat, grid):
            drift[tuple(q)].append(
                (i, c * _ik_symbol(ks[j] - q[j], grid.m)))
        # noise terms by shift q: (i, column of the per-realization factor
        # sum_k g_k c_k,i,q); all noise fields share one column per (i, q)
        cols = sorted({iq for hat, _ in phi_hat for iq, _ in
                       _modes(hat, grid)})
        self._noise_coef = np.zeros((self.noise_rank, len(cols)),
                                    dtype=complex)
        for k, (hat, _) in enumerate(phi_hat):
            for iq, c in _modes(hat, grid):
                self._noise_coef[k, cols.index(iq)] = c
        for col, (i, *q) in enumerate(cols):
            noise[tuple(q)].append((i, col))
        # shifted products of one noisy step (Heun: the noise ones twice)
        self.products_per_step = sum(map(len, drift.values())) + len(cols) * (
            2 if scheme == STRATONOVICH else 1)

        # the periodic extension of a source: the full last axis when a mode
        # shifts it, two periods along every shifted axis, so that the
        # source at k - q is one slice for every shift q
        shifts = sorted(set(drift) | set(noise))
        moved = [any(q[d] for q in shifts) for d in range(grid.dim)]
        self._full_last = moved[-1]
        self._doubled = [d - grid.dim for d in range(grid.dim) if moved[d]]
        sizes = [grid.m] * (grid.dim - 1) + [grid.m // 2 + 1]
        self._shifts = [
            ((Ellipsis,) + tuple(slice(-qd % grid.m, -qd % grid.m + n)
                                 if mv else slice(None)
                                 for qd, n, mv in zip(q, sizes, moved)),
             drift[q], noise[q]) for q in shifts]

        # a cross term k_i k_j (i != j) is two odd derivatives: Nyquist rule
        odd = [np.where(np.abs(k) == grid.m // 2, 0, k) for k in ks]
        mu = np.zeros(ks[0].shape)
        for i in range(grid.dim):
            for j in range(grid.dim):
                a, b = (ks[i], ks[j]) if i == j else (odd[i], odd[j])
                mu += 4 * np.pi**2 * kbar[i, j] * a * b
        self._cn_minus = 1.0 - 0.5 * dt * mu
        self._cn_plus_inv = 1.0 / (1.0 + 0.5 * dt * mu)

    # -- spectral helpers ---------------------------------------------------

    def _axes(self, arr):
        return tuple(range(arr.ndim - self.grid.dim, arr.ndim))

    def to_physical(self, coef):
        return np.fft.irfftn(coef, s=self.grid.shape, axes=self._axes(coef),
                             norm="forward")

    # no caller in the package; the benchmark's span hooks wrap it by name
    def to_spectral(self, phys):
        return np.fft.rfftn(phys, axes=self._axes(phys), norm="forward")

    def _extend(self, coef):
        """The periodic extension that every shifted source slice reads."""
        ext = _full_spectrum(coef, self.grid) if self._full_last else coef
        for ax in self._doubled:
            ext = np.concatenate([ext, ext], axis=ax)
        return ext

    def _drift_fluxes(self, ext):
        """F_i^ of the drift terms (None for an axis without any)."""
        fluxes = [None] * self.grid.dim
        for sl, drift, _ in self._shifts:
            src = ext[sl]
            for i, c in drift:
                fluxes[i] = _added(fluxes[i], c * src)
        return fluxes

    def _add_noise(self, fluxes, ext, factors):
        """Add the noise terms, read from the extension `ext` of the noise
        density, to `fluxes` in place."""
        for sl, _, noise in self._shifts:
            src = ext[sl]
            for i, col in noise:
                fluxes[i] = _added(fluxes[i], factors[col] * src)
        return fluxes

    def _update(self, coef, fluxes):
        """(cn_minus coef + sum_i ik_i F_i^) cn_plus_inv."""
        out = self._cn_minus * coef
        for ik, flux in zip(self._ik, fluxes):
            if flux is not None:
                out += ik * flux
        out *= self._cn_plus_inv
        return out

    # -- stepping ------------------------------------------------------------

    def step_hat(self, coef, g=None):
        """One step on half-spectrum coefficients; g: standard normals
        (..., rank)."""
        ext = self._extend(coef)
        drift = self._drift_fluxes(ext)
        if g is None or self.noise_rank == 0:
            return self._update(coef, drift)
        # per-realization factors sum_k g_k c_k,i,q of the noise columns
        factors = g[..., 0, None] * self._noise_coef[0]
        for k in range(1, self.noise_rank):
            factors += g[..., k, None] * self._noise_coef[k]
        shape = g.shape[:-1] + (1,) * self.grid.dim
        factors = [factors[..., col].reshape(shape)
                   for col in range(factors.shape[-1])]
        if self.scheme == ITO:
            return self._update(coef, self._add_noise(drift, ext, factors))
        # Stratonovich: Heun rule; the noise is linear in rho, so the mean of
        # the two endpoint noises is the noise of the mean density
        pred = self._update(coef, self._add_noise(
            [None if f is None else f.copy() for f in drift], ext, factors))
        mid = self._extend(0.5 * (coef + pred))
        return self._update(coef, self._add_noise(drift, mid, factors))


def _added(total, term):
    """total + term, accumulated in place into `total` unless it is None."""
    if total is None:
        return term
    total += term
    return total


def _ik_symbol(k, m: int):
    """2 pi i k at the wavenumbers k taken modulo m into [-m/2, m/2), zero
    on the Nyquist modes |k| = m/2 (module docstring)."""
    k = (k + m // 2) % m - m // 2
    return 2j * np.pi * np.where(np.abs(k) == m // 2, 0, k)


def _kept_spectrum(vals, grid: TorusGrid):
    """Spectrum of a field (components first, grid axes last) after the
    rounding cut of `significant_modes`, and its dropped tail."""
    axes = tuple(range(vals.ndim - grid.dim, vals.ndim))
    hat = np.fft.fftn(vals, axes=axes) / grid.size
    kept, tail = significant_modes(hat.reshape(-1, grid.size))
    return kept.reshape(hat.shape), tail


def _modes(hat, grid: TorusGrid):
    """(component indices and signed wavevector, coefficient) of every
    nonzero entry of a spectrum (components first, grid axes last)."""
    m = grid.m
    for idx in zip(*np.nonzero(hat)):
        comp, q = idx[:-grid.dim], idx[-grid.dim:]
        yield (*map(int, comp), *((int(qd) + m // 2) % m - m // 2
                                  for qd in q)), hat[idx]


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
    products_per_step: int      # shifted products of one step
    coefficient_modes: int      # kept modes of the pre-scaled fields
    dropped_tail: float         # largest dropped |c| / max |c| among them
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
                          stepper.products_per_step,
                          stepper.coefficient_modes, stepper.dropped_tail,
                          len(blocks),
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
