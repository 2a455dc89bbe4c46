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

with src = rho^, ik_j rho^ or the noise density.  The update
coef' = (cn_minus coef + sum_i ik_i F_i^) cn_plus_inv is linear in the
shifted sources, so the stepper folds cn_plus_inv, ik_i and every term of
a shift q into one multiplier: D_q for the drift (the Theta_i and Kvar_ij
modes at q, a Kvar_ij mode with its source's derivative symbol
ik_j(k - q)), and N_k,q for each noise field phi_k.  A step is then

    coef' = A coef + sum_q D_q ext_q + sum_k g_k sum_q N_k,q ext_q,

with A = cn_minus cn_plus_inv and g_k the realization's standard normals,
and runs no transform.  A(0) = 1 and D_q(0) = N_k,q(0) = 0 (ik(0) = 0),
so the mass coefficient stays exact.  ext_q, the source at k - q, is a
slice of one periodic extension of the state: the spectrum, completed by
c(-k) = conj c(k) along the last axis when some mode shifts it, laid out
twice along each shifted axis, formed by one precomputed gather from the
half spectrum and a conjugation of the mirrored last-axis slices.
`products_per_step` counts the shifted products: one per drift shift and
one per (noise field, shift), 4 for the two-point law
+/- a cos(2 pi x_0) e_0 in 1-D and 2-D (Theta and Kvar at +/- 2 e_0, phi
at +/- e_0; `coefficient_modes` counts its 6 kept modes).  The cost is
proportional to that count, not to log(grid): every law the configs reach
has a handful of modes, so there is no transform fallback for dense
coefficients.  The Heun step adds the noise products once more on its
midpoint (coef + coef_pred) / 2, sharing A coef + sum_q D_q ext_q with the
predictor: the noise is linear in rho, so the mean of the two endpoint
noises is the noise of the mean density.

A real field's spectrum pairs c(-k) = conj c(k).  The Nyquist wavenumber
m/2 is its own negative on the grid, so an odd derivative there would feed
an imaginary part that no real field has; as usual for real fields, the
derivative symbol 2 pi i k_i is set to zero on every mode with
|k_i| = m/2.  The Crank-Nicolson symbol keeps k_i^2 there but, for the
same reason, not a cross term k_i k_j (i != j): with it, a mean K_ij off
the diagonal would weigh the modes (m/2, k_j) and (m/2, -k_j) unequally,
and the step would leave the real fields.  The k = 0 symbol is zero too,
so the mass coefficient is never changed.

States step on the modes they can occupy.  A grid axis d is still when no
multiplier moves it: no drift shift D_q and no noise shift N_k,q has
q_d != 0 (the Heun stage reads the same shifts).  `SpdeStepper.cut` cuts
each still axis of a start to k_d = 0 when the start is exactly zero
wherever k_d != 0, and the states keep that shape, batch axes first and
the grid axes last with length 1 on a cut axis.  This is exact: the step
is linear, mode k takes A(k) coef(k) plus products with coef(k - q) over
the shifts q, and on a still axis k_d - q_d = k_d, so a column k_d != 0
that starts at exactly 0 stays exactly 0; on the cut the same products
are added in the same order, so its values are those of the half
spectrum's k_d = 0 column to the bit.  The rule reads exact zeros, not a
threshold: a start with rounding-level modes off the cut steps the whole
half spectrum.  Every law the configs build is +/- a cos(2 pi mode x_0) e_0
and the default start depends on x_0 only, so a 2-D state steps
(realizations, m, 1) arrays where the half spectrum is (realizations, m,
m/2 + 1); in 1-D, and for laws that move every axis, nothing is cut.
`to_physical` pads a cut state with zeros (`irfftn` with the grid's
shape), and the ensemble's mean and variance are padded back to the half
spectrum once, at the end.  `step_hat` keeps the multipliers cut to each
state shape it meets, with one set of temporaries of that shape.

Realizations are advanced in blocks of `torus.BLOCK_VALUES` grid values
(max(1, BLOCK_VALUES // M^N) realizations, the last block may hold fewer).
Each block is stepped from t = 0 to the horizon on its own, one `step_hat`
call per step, and draws its noise from its realizations' streams, so the
step's temporaries stay cache-sized and memory is one block's states plus
the checkpoint statistics, whatever the ensemble size.  Blocks go through
`rng.parallel_map`, across `n_workers` processes when asked, and come
back in block order.  A block returns its per-realization samples <rho,
xi>, its smallest physical value and its states at the checkpoints;
the caller adds each realization's spectra, less those of realization 0,
to a running sum and a running sum of squares, one realization at a time
in realization order, and the ensemble mean and variance come from these
sums.  Every product and transform acts on each realization alone and the
sums run in realization order, so no output depends on the block size or
the worker count, and the mass mode, equal in every realization, has
variance exactly 0.  Each realization's Gaussian increments come from its
own counter-based stream, so ensembles are reproducible for any block or
worker layout.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import partial
from itertools import pairwise

import numpy as np

from .coefficients import CovOperator, HydroCoefficients
from .rng import SPDE_NOISE, parallel_map, substream
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
    m // 2 + 1 modes), or a `cut` of it, with the grid axes last, so a batch
    of realizations is just a leading axis.
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
        ik = [_ik_symbol(k, grid.m) for k in ks]

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

        # a cross term k_i k_j (i != j) is two odd derivatives: Nyquist rule
        odd = [np.where(np.abs(k) == grid.m // 2, 0, k) for k in ks]
        mu = np.zeros(ks[0].shape)
        for i in range(grid.dim):
            for j in range(grid.dim):
                a, b = (ks[i], ks[j]) if i == j else (odd[i], odd[j])
                mu += 4 * np.pi**2 * kbar[i, j] * a * b
        cn_plus_inv = 1.0 / (1.0 + 0.5 * dt * mu)
        self._decay = (1.0 - 0.5 * dt * mu) * cn_plus_inv

        # one multiplier per shift q, cn_plus_inv sum_i ik_i c over the kept
        # modes c at q of the flux fields (a Kvar_ij mode also carries its
        # source's derivative symbol ik_j(k - q)): D_q for the drift, and
        # N_k,q for each noise field phi_k, weighed by g_k in a step
        drift = defaultdict(complex)
        for (i, *q), c in _modes(theta_hat, grid):
            drift[tuple(q)] += ik[i] * c
        for (i, j, *q), c in _modes(kvar_hat, grid):
            drift[tuple(q)] += ik[i] * (c * _ik_symbol(ks[j] - q[j], grid.m))
        noise = [defaultdict(complex) for _ in phi_hat]
        for field, (hat, _) in zip(noise, phi_hat):
            for (i, *q), c in _modes(hat, grid):
                field[tuple(q)] += ik[i] * c
        # shifted products of one noisy step (Heun: the noise ones twice)
        self.products_per_step = len(drift) + sum(map(len, noise)) * (
            2 if scheme == STRATONOVICH else 1)

        # the periodic extension of a source: the full last axis when a mode
        # shifts it, two periods along every shifted axis, so that the
        # source at k - q is one slice for every shift q
        shifts = set(drift).union(*noise)
        moved = [any(q[d] for q in shifts) for d in range(grid.dim)]
        sizes = [grid.m] * (grid.dim - 1) + [grid.m // 2 + 1]

        def terms(mults):
            return [((Ellipsis,) + tuple(
                slice(-qd % grid.m, -qd % grid.m + n) if mv else slice(None)
                for qd, n, mv in zip(q, sizes, moved)), cn_plus_inv * mult)
                for q, mult in sorted(mults.items())]
        self._drift = terms(drift)
        self._noise = [terms(field) for field in noise]
        self._moved = moved
        self._half_shape = tuple(sizes)
        self._plans = {}

    # -- spectral helpers ---------------------------------------------------

    def _axes(self, arr):
        return tuple(range(arr.ndim - self.grid.dim, arr.ndim))

    def to_physical(self, coef):
        return np.fft.irfftn(coef, s=self.grid.shape, axes=self._axes(coef),
                             norm="forward")

    # no caller in the package; the benchmark's span hooks wrap it by name
    def to_spectral(self, phys):
        return np.fft.rfftn(phys, axes=self._axes(phys), norm="forward")

    def cut(self, coef):
        """`coef` (half spectra, grid axes last) with every still axis d, one
        that no multiplier moves, cut to k_d = 0 where the spectrum is
        exactly zero off k_d = 0; other axes keep their length (module
        docstring).  A view, not a copy."""
        for d, moved in enumerate(self._moved):
            after = (slice(None),) * (self.grid.dim - 1 - d)
            if not moved and not np.any(coef[(Ellipsis, slice(1, None))
                                             + after]):
                coef = coef[(Ellipsis, slice(0, 1)) + after]
        return coef

    def _plan(self, shape):
        """The step's data for states of `shape`, made once per shape: A and
        the multipliers cut to its grid axes, the gather and mirrored slices
        of its periodic extension, and the temporaries of `_add_noise`."""
        plan = self._plans.get(shape)
        if plan is not None:
            return plan
        grid_shape = shape[len(shape) - self.grid.dim:]
        if len(grid_shape) != self.grid.dim or any(
                n not in (1, full)
                for n, full in zip(grid_shape, self._half_shape)):
            raise ValueError(f"state shape {shape} is neither a half "
                             f"spectrum {self._half_shape} nor a cut of one")
        if any(n == 1 and mv for n, mv in zip(grid_shape, self._moved)):
            raise ValueError(f"state shape {shape} cuts an axis that the "
                             f"multipliers move")
        sub = (Ellipsis,) + tuple(slice(n) for n in grid_shape)

        def sliced(terms):
            return [(sl, mult[sub]) for sl, mult in terms]
        gather, mirrored = _extension(self._moved, grid_shape, self.grid.m)
        plan = _Plan(
            self._decay[sub], sliced(self._drift),
            [sliced(field) for field in self._noise], gather, mirrored,
            np.empty(shape, dtype=complex), np.empty(shape, dtype=complex))
        self._plans[shape] = plan
        return plan

    def _extend(self, coef, plan):
        """The periodic extension that every shifted source slice reads: one
        gather from the state, then c(-k) = conj c(k) where the gather read
        the mirror mode."""
        if plan.gather is None:
            return coef
        lead = coef.shape[:coef.ndim - self.grid.dim]
        ext = coef.reshape(lead + (-1,))[..., plan.gather]
        for sl in plan.mirrored:
            np.conjugate(ext[sl], out=ext[sl])
        return ext

    def _add_noise(self, out, ext, g, plan):
        """Add sum_k g_k sum_q N_k,q ext_q to `out` in place, reading the
        sources from the extension `ext` of the noise density; g_k is a
        column of one standard normal per realization."""
        acc, term = plan.acc, plan.term
        for gk, field in zip(g, plan.noise):
            if not field:           # a zero noise field keeps no mode
                continue
            (sl, mult), *rest = field
            np.multiply(mult, ext[sl], out=acc)
            for sl, mult in rest:
                acc += np.multiply(mult, ext[sl], out=term)
            acc *= gk
            out += acc
        return out

    # -- stepping ------------------------------------------------------------

    def step_hat(self, coef, g=None):
        """One step on half-spectrum coefficients or a `cut` of them; g:
        standard normals (..., rank).  Returns a new array."""
        plan = self._plan(coef.shape)
        ext = self._extend(coef, plan)
        det = plan.decay * coef
        for sl, mult in plan.drift:
            det += np.multiply(mult, ext[sl], out=plan.term)
        if g is None or self.noise_rank == 0:
            return det
        shape = g.shape[:-1] + (1,) * self.grid.dim
        g = [g[..., k].reshape(shape) for k in range(self.noise_rank)]
        if self.scheme == ITO:
            return self._add_noise(det, ext, g, plan)
        # Stratonovich: Heun rule; the noise is linear in rho, so the mean of
        # the two endpoint noises is the noise of the mean density
        pred = self._add_noise(det.copy(), ext, g, plan)
        pred += coef
        pred *= 0.5
        return self._add_noise(det, self._extend(pred, plan), g, plan)


@dataclass
class _Plan:
    """`SpdeStepper._plan`: the step's data for one state shape."""

    decay: np.ndarray           # A = cn_minus cn_plus_inv on the state's modes
    drift: list                 # (source slice, D_q) per drift shift q
    noise: list                 # per noise field, (source slice, N_k,q)
    gather: np.ndarray | None   # flat state indices of the extension
    mirrored: list              # extension slices that take the conjugate
    acc: np.ndarray             # temporaries of the state's shape
    term: np.ndarray


def _extension(moved, shape, m: int):
    """Flat state indices of the periodic extension (full last axis if
    `moved[-1]`, two periods along every other moved axis) for states
    whose grid axes have `shape` (the half spectrum or a cut of it), and
    the last-axis slices of it that take the conjugate, c(-k) = conj c(k)
    (the modes k_N > m/2 of each period); (None, []) when no mode moves any
    axis."""
    half = m // 2 + 1
    if not any(moved):
        return None, []
    axes = [np.arange(2 * m) % m if mv else np.arange(n)
            for mv, n in zip(moved, shape)]
    ks = np.meshgrid(*axes, indexing="ij")
    # a mirrored entry reads the half spectrum at -k
    mirror = ks[-1] >= half
    ks = [np.where(mirror, -k % m, k) for k in ks]
    flat = np.ravel_multi_index(ks, shape)
    periods = 2 if moved[-1] else 0
    return flat, [(Ellipsis, slice(p * m + half, (p + 1) * m))
                  for p in range(periods)]


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


def _uncut(coef, grid: TorusGrid):
    """A `cut` state back on the half spectrum, exactly zero off the cut."""
    half_shape = grid.shape[:-1] + (grid.m // 2 + 1,)
    lead = coef.shape[:coef.ndim - grid.dim]
    half = np.zeros(lead + half_shape, dtype=coef.dtype)
    half[tuple(slice(0, n) for n in coef.shape)] = coef
    return half


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
    coef = stepper.cut(_half_spectrum(rho_in.spectrum()))
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
    products_per_step: int      # shifted products of one step (docstring)
    coefficient_modes: int      # kept modes of the pre-scaled fields
    dropped_tail: float         # largest dropped |c| / max |c| among them
    blocks_per_step: int        # step_hat calls per step
    block_realizations: int     # realizations per block (last may hold fewer)
    stepped_modes: int          # modes of one realization's stepped state

    def mean_field(self, grid: TorusGrid, idx: int = -1) -> TorusField:
        return TorusField(grid, 0, self.mean_hat[idx],
                          space="spectral").to_physical()


def _blocks(n_realizations: int, grid: TorusGrid) -> list:
    """Slices of consecutive realizations of BLOCK_VALUES grid values each
    (at least one realization); the last block may hold fewer."""
    size = max(1, BLOCK_VALUES // grid.size)
    return [slice(lo, min(lo + size, n_realizations))
            for lo in range(0, n_realizations, size)]


def _block_states(stepper: SpdeStepper, start, n_steps: int, seed,
                  block: slice):
    """States (realizations, start's grid shape) of the realizations of
    `block`, started at `start` (a half spectrum or a `cut` of one), after
    0, 1, ..., n_steps steps.  Realization r draws its standard normals
    from the stream key `seed` followed by (SPDE_NOISE, r)."""
    noise = np.array([substream(seed, SPDE_NOISE, r).standard_normal(
        (n_steps, stepper.noise_rank))
        for r in range(block.start, block.stop)])
    coef = np.broadcast_to(start, (len(noise),) + start.shape).copy()
    yield coef
    for step in range(n_steps):
        coef = stepper.step_hat(coef, noise[:, step, :])
        yield coef


def _ensemble_block(job, block: slice):
    """One block stepped to the horizon: its states at the checkpoints
    (checkpoints, realizations, start's grid shape), its samples
    <rho, xi> (checkpoints, realizations, xi) and its smallest physical
    value."""
    stepper, start, n_steps, checkpoints, xi_phys, seed = job
    gaxes = tuple(range(1, 1 + stepper.grid.dim))
    index = {step: i for i, step in enumerate(checkpoints)}
    size = block.stop - block.start
    states = np.empty((len(checkpoints), size) + start.shape, dtype=complex)
    samples = np.empty((len(checkpoints), size, len(xi_phys)))
    low = np.inf
    for step, coef in enumerate(_block_states(stepper, start, n_steps, seed,
                                              block)):
        i = index.get(step)
        if i is None:
            continue
        if not np.all(np.isfinite(coef)):
            raise ValueError("ensemble spectrum lost finiteness")
        phys = stepper.to_physical(coef)
        for j, xi in enumerate(xi_phys):
            samples[i, :, j] = (phys * xi).mean(axis=gaxes)
        low = min(low, float(phys.min()))
        states[i] = coef
    return states, samples, low


def run_ensemble(coeffs: HydroCoefficients, cov: CovOperator,
                 rho_in: TorusField, horizon: float, dt: float,
                 n_realizations: int, seed, xi_fields=(),
                 n_checkpoints: int = 5, scheme: str = ITO,
                 n_workers: int = 1) -> EnsembleResult:
    """Ensemble of independent realizations with law statistics.  Each
    block is stepped to the horizon on its own (`n_workers` processes take
    blocks in turn); the parent keeps the per-realization samples and adds
    each realization's checkpoint spectra to the sums of its deviations
    from realization 0, in realization order (module docstring)."""
    if n_realizations < 2:
        raise ValueError("need at least two realizations")
    n_steps = step_count(horizon, dt)
    stepper = SpdeStepper(coeffs, cov, dt, scheme)
    grid = rho_in.grid
    steps = sorted(set(np.round(np.linspace(
        0, n_steps, n_checkpoints + 1)).astype(int).tolist()))
    blocks = _blocks(n_realizations, grid)
    start = stepper.cut(_half_spectrum(rho_in.spectrum()))
    job = (stepper, start, n_steps, steps,
           [xi.physical() for xi in xi_fields], seed)
    samples = np.empty((len(steps), n_realizations, len(xi_fields)))
    min_rho = np.inf
    results = parallel_map(partial(_ensemble_block, job), blocks, n_workers)
    for b in blocks:
        states, block_samples, low = next(results)
        if b.start == 0:
            ref = states[:, 0].copy()
            dev_sum = np.zeros_like(ref)
            sq_sum = np.zeros(ref.shape)
        # the running sums over this block's realizations: the previous
        # sum goes into the first realization's slot and `accumulate` adds
        # strictly left to right, as a loop over realizations would
        dev = np.subtract(states, ref[:, None], out=states)
        sq = np.square(dev.real)
        sq += np.square(dev.imag)
        sq[:, 0] += sq_sum
        sq_sum = np.add.accumulate(sq, axis=1, out=sq)[:, -1].copy()
        dev[:, 0] += dev_sum
        dev_sum = np.add.accumulate(dev, axis=1, out=dev)[:, -1].copy()
        samples[:, b] = block_samples
        min_rho = min(min_rho, low)
        # free this block's arrays before the next block is stepped
        del states, block_samples, dev, sq
    mean_dev = dev_sum / n_realizations
    var = np.maximum(sq_sum / n_realizations - mean_dev.real**2
                     - mean_dev.imag**2, 0.0)
    mean_hat, var_hat = (_full_spectrum(_uncut(c, grid), grid)
                         for c in (ref + mean_dev, var))
    return EnsembleResult(np.array(steps) * dt, mean_hat, var_hat, samples,
                          min_rho, stepper.noise_rank, n_steps,
                          stepper.products_per_step,
                          stepper.coefficient_modes, stepper.dropped_tail,
                          len(blocks),
                          blocks[0].stop - blocks[0].start, start.size)


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
    start = stepper.cut(_half_spectrum(rho_in.spectrum()))
    qv_emp, qv_pred, mart, final = (np.zeros(n_realizations)
                                    for _ in range(4))
    for b in _blocks(n_realizations, grid):
        paths = _block_states(stepper, start, n_steps, seed, b)
        for before, after in pairwise(paths):
            phys = stepper.to_physical(before)
            # predicted rate: 2 sum_k <phi_k, rho grad xi>^2 (left endpoint)
            for phi in phis:
                proj = np.zeros(len(phys))
                for i in range(grid.dim):
                    proj += (phys * phi[i] * grad_xi[i]).mean(axis=gaxes)
                qv_pred[b] += 2.0 * dt * proj**2
            noise = stepper.to_physical(after - stepper.step_hat(before))
            dm = (noise * xi_phys).mean(axis=gaxes)
            qv_emp[b] += dm**2
            mart[b] += dm
        final[b] = (stepper.to_physical(after) * xi_phys).mean(axis=gaxes)
    gaps = np.abs(qv_emp - qv_pred) / np.maximum(qv_pred, 1e-300)
    return QvReport(qv_emp, qv_pred, float(gaps.mean()), float(mart.mean()),
                    float(mart.std(ddof=1) / np.sqrt(n_realizations)), final)
